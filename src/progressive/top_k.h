#ifndef SPER_PROGRESSIVE_TOP_K_H_
#define SPER_PROGRESSIVE_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <vector>

#include "core/comparison.h"
#include "core/macros.h"
#include "core/page_resource.h"
#include "progressive/comparison_list.h"

/// \file top_k.h
/// Reusable top-k selector: PPS's SortedStack (paper Alg. 6 lines 15-18)
/// without a per-refill heap. Candidates are stored as ComparisonKey,
/// whose unsigned order is ByWeightDesc's, so every selection compares
/// integers.
///
/// Every candidate is stored, and the k best are selected once, at the
/// end: one nth_element over the 8-byte weight words finds the k-th
/// largest weight T; every key above T is kept, and of the keys at T the
/// `need` best-ranked (largest low word, i.e. smallest pair) are picked by
/// a second nth_element over their low words. That is exact: ByWeightDesc
/// is a total order over distinct pairs, at most k - 1 keys lie above T
/// and at least k lie at or above it. A refill's candidates carry few
/// distinct weights (ARCS shares tie), so the tie set left for the second
/// step is small. Every correct sort of distinct keys gives the same
/// order, so the kept set and the emission order are bit-identical to the
/// bounded min-heap this replaces. Reserve() sizes the buffers for the
/// largest candidate set up front, so a selector reused across refills
/// never allocates.

namespace sper {

/// Keeps the k best comparisons under ByWeightDesc of one candidate set.
class TopKBuffer {
 public:
  /// Sizes the buffers for selections from at most `n` candidates, so that
  /// none of them allocates. Sized for the largest candidate set, they are
  /// mostly unused by a typical one, so they are page mappings of their
  /// own (page_resource.h) rather than malloc heap.
  void Reserve(std::size_t n) {
    if (keys_.size() >= n) return;
    keys_.resize(n);
    words_.resize(n);
  }

  /// Replaces the selection with the k best of the `n` candidates
  /// candidate(0), ..., candidate(n - 1), calling each once, in order.
  /// k = 0 keeps nothing; SIZE_MAX keeps everything (the paper's Same
  /// Eventual Quality configuration, where kmax never truncates).
  template <typename Candidate>
  void Assign(std::size_t k, std::size_t n, Candidate&& candidate) {
    k_ = k;
    size_ = 0;
    if (k == 0) {
      for (std::size_t t = 0; t < n; ++t) candidate(t);
      return;
    }
    Reserve(n);
    ComparisonKey* const keys = keys_.data();
    std::uint64_t* const words = words_.data();
    for (std::size_t t = 0; t < n; ++t) {
      const ComparisonKey key = Key(candidate(t));
      keys[t] = key;
      words[t] = key.hi;
    }
    size_ = n;
  }

  /// Appends the kept comparisons to `out`, best first. Ends the
  /// selection: call Assign() before the next AppendDescending().
  void AppendDescending(ComparisonList& out) {
    if (size_ > k_) SelectBest();
    ComparisonKey* const keys = keys_.data();
    std::sort(keys, keys + size_, std::greater<>());
    for (std::size_t t = 0; t < size_; ++t) out.Add(keys[t].Decode());
  }

 private:
  static ComparisonKey Key(const Comparison& c) {
    SPER_DCHECK(c.i != kInvalidProfile);
    return ComparisonKey::Of(c);
  }

  /// Keeps exactly the k best of more than k stored keys, in no order.
  void SelectBest() {
    ComparisonKey* const keys = keys_.data();
    std::uint64_t* const words = words_.data();
    std::nth_element(words, words + (k_ - 1), words + size_,
                     std::greater<>());
    const std::uint64_t threshold = words[k_ - 1];
    // One branch-free pass moves the keys above the threshold to the
    // front, in place, and collects the low words of the ties at it into
    // words_, whose weight words are spent.
    std::size_t above = 0;
    std::size_t ties = 0;
    for (std::size_t t = 0; t < size_; ++t) {
      const ComparisonKey key = keys[t];
      keys[above] = key;
      above += key.hi > threshold;
      words[ties] = key.lo;
      ties += key.hi == threshold;
    }
    const std::size_t need = k_ - above;
    SPER_DCHECK(need >= 1 && need <= ties);
    if (ties > need) {
      std::nth_element(words, words + (need - 1), words + ties,
                       std::greater<>());
    }
    for (std::size_t t = 0; t < need; ++t) {
      keys[above + t] = ComparisonKey{threshold, words[t]};
    }
    size_ = k_;
  }

  /// The stored keys, keys_[0, size_).
  std::pmr::vector<ComparisonKey> keys_{Pages()};
  /// Selection scratch: the keys' weight words, then the ties' low words.
  std::pmr::vector<std::uint64_t> words_{Pages()};
  std::size_t size_ = 0;
  std::size_t k_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_TOP_K_H_
