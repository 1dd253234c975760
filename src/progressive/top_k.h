#ifndef SPER_PROGRESSIVE_TOP_K_H_
#define SPER_PROGRESSIVE_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/comparison.h"
#include "core/macros.h"
#include "progressive/comparison_list.h"

/// \file top_k.h
/// Reusable bounded top-k accumulator: PPS's SortedStack (paper Alg. 6
/// lines 15-18) without a per-refill heap. Candidates are stored as
/// ComparisonKey, whose unsigned order is ByWeightDesc's, so every
/// selection compares integers. The buffer is cut back to the k best with
/// nth_element whenever it reaches 2k; from the first cut on, the k-th
/// best key is a rejection floor, and a candidate whose key is not above
/// it is dropped without being stored. That is exact: ByWeightDesc is a
/// total order over distinct pairs, so such a candidate can never be in
/// the final k. The kept set, and therefore the emission order, is
/// bit-identical to the bounded min-heap it replaces. Push is amortized
/// O(1) and the buffer's capacity survives across refills.

namespace sper {

/// Keeps the k best comparisons under ByWeightDesc seen since Reset().
class TopKBuffer {
 public:
  /// Starts a new accumulation bounded at `k`. k = 0 keeps nothing;
  /// SIZE_MAX keeps everything (the paper's Same Eventual Quality
  /// configuration, where kmax never truncates).
  void Reset(std::size_t k) {
    k_ = k;
    keys_.clear();
    // The floor {0, 0} is below the key of every pair with a valid id; at
    // k = 0 the largest key rejects every candidate.
    floor_ = k == 0 ? ComparisonKey{~0ULL, ~0ULL} : ComparisonKey{};
    // Cut back at 2k; saturate so huge k (SIZE_MAX) never truncates.
    cut_at_ = k >= keys_.max_size() / 2 ? keys_.max_size() : 2 * k;
  }

  /// Pre-allocates for `n` pending comparisons; Reset() keeps capacity.
  void Reserve(std::size_t n) { keys_.reserve(n); }

  void Push(const Comparison& c) {
    SPER_DCHECK(c.i != kInvalidProfile);
    const ComparisonKey key = ComparisonKey::Of(c);
    if (!(key > floor_)) return;
    keys_.push_back(key);
    if (keys_.size() >= cut_at_) Cut();
  }

  /// Appends the kept comparisons to `out`, best first. Ends the
  /// accumulation: call Reset() before the next Push().
  void AppendDescending(ComparisonList& out) {
    if (keys_.size() > k_) Cut();
    std::sort(keys_.begin(), keys_.end(), std::greater<>());
    for (const ComparisonKey& key : keys_) out.Add(key.Decode());
  }

 private:
  void Cut() {
    std::nth_element(keys_.begin(), keys_.begin() + (k_ - 1), keys_.end(),
                     std::greater<>());
    keys_.resize(k_);
    floor_ = keys_.back();
  }

  std::vector<ComparisonKey> keys_;
  ComparisonKey floor_;
  std::size_t k_ = 0;
  std::size_t cut_at_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_TOP_K_H_
