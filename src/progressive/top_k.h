#ifndef SPER_PROGRESSIVE_TOP_K_H_
#define SPER_PROGRESSIVE_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/comparison.h"

/// \file top_k.h
/// Reusable bounded top-k accumulator — the allocation-free replacement of
/// the per-refill std::priority_queue in PPS's SortedStack (paper Alg. 6
/// lines 15-18). Candidates append into a flat buffer that is cut back to
/// the k best with nth_element whenever it reaches 2k, so Push is
/// amortized O(1) and the buffer's capacity survives across refills.
/// ByWeightDesc is a total order (ties broken on ids), so the kept set —
/// and therefore the emission order — is bit-identical to the heap-based
/// reference implementation.

namespace sper {

/// Keeps the k best comparisons under ByWeightDesc seen since Reset().
class TopKBuffer {
 public:
  /// Starts a new accumulation bounded at `k`. k = 0 keeps nothing;
  /// SIZE_MAX keeps everything (the paper's Same Eventual Quality
  /// configuration, where kmax never truncates).
  void Reset(std::size_t k) {
    k_ = k;
    items_.clear();
    // Cut back at 2k; saturate so huge k (SIZE_MAX) never truncates.
    prune_at_ =
        k >= items_.max_size() / 2 ? items_.max_size() : std::max<std::size_t>(2 * k, 2);
  }

  /// Pre-allocates for `n` pending comparisons; Reset() keeps capacity.
  void Reserve(std::size_t n) { items_.reserve(n); }

  void Push(const Comparison& c) {
    if (k_ == 0) return;
    items_.push_back(c);
    if (items_.size() >= prune_at_) Shrink();
  }

  /// Finalizes the accumulation: the kept comparisons sorted *ascending*
  /// (worst first) — the drain order of the bounded min-heap this buffer
  /// replaces, which ComparisonList::FillFromAscending reverses in O(k).
  /// Valid until the next Reset()/Push().
  std::span<const Comparison> SortedAscending() {
    if (items_.size() > k_) Shrink();
    std::sort(items_.begin(), items_.end(), ByWeightAsc());
    return items_;
  }

 private:
  void Shrink() {
    std::nth_element(items_.begin(), items_.begin() + (k_ - 1), items_.end(),
                     ByWeightDesc());
    items_.resize(k_);
  }

  std::vector<Comparison> items_;
  std::size_t k_ = 0;
  std::size_t prune_at_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_TOP_K_H_
