#ifndef SPER_PROGRESSIVE_COMPARISON_LIST_H_
#define SPER_PROGRESSIVE_COMPARISON_LIST_H_

#include <algorithm>
#include <vector>

#include "core/comparison.h"

/// \file comparison_list.h
/// The Comparison List shared by all advanced methods (paper Sec. 5): a
/// batch of comparisons sorted in non-increasing matching likelihood,
/// consumed front to back and refilled when empty.

namespace sper {

/// Sorted comparison buffer with O(1) pop.
class ComparisonList {
 public:
  /// Appends a comparison to the unsorted tail.
  void Add(const Comparison& c) { items_.push_back(c); }

  /// Pre-allocates for `n` comparisons.
  void Reserve(std::size_t n) { items_.reserve(n); }

  /// Sorts the comparisons from position `from` on by descending weight
  /// (deterministic ties). A refill appends its comparisons, then sorts
  /// just that tail — the path for producers with no useful order, such
  /// as PBS blocks — so several refills can share one buffer (an emission
  /// pipeline slot) in refill order.
  void SortDescending(std::size_t from = 0) {
    std::sort(items_.begin() + static_cast<std::ptrdiff_t>(from),
              items_.end(), ByWeightDesc());
  }

  /// Appends `other`'s not-yet-popped comparisons to the tail, preserving
  /// their order.
  void AppendFrom(const ComparisonList& other) {
    items_.insert(items_.end(), other.items_.begin() + other.cursor_,
                  other.items_.end());
  }

  /// True when every buffered comparison has been popped.
  bool Empty() const { return cursor_ >= items_.size(); }

  /// Pops the highest-weighted remaining comparison.
  Comparison PopFirst() { return items_[cursor_++]; }

  /// Pops up to `max` of the highest-weighted remaining comparisons in
  /// one copy, appending them to `out` in order.
  void PopInto(std::vector<Comparison>& out, std::size_t max) {
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(cursor_);
    const std::size_t n = std::min(max, remaining());
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
    cursor_ += n;
  }

  /// Drops all content (start of a refill). Capacity is retained, so a
  /// reused list (pipeline ring slots) stops allocating once warm.
  void Clear() {
    items_.clear();
    cursor_ = 0;
  }

  /// Comparisons not yet popped.
  std::size_t remaining() const { return items_.size() - cursor_; }

  /// Comparisons held, popped or not (a producer's append position).
  std::size_t size() const { return items_.size(); }

  /// Drops every comparison from position `n` on — undoes the appends of
  /// a refill that failed part-way. Must not cut below the cursor.
  void Truncate(std::size_t n) { items_.resize(n); }

 private:
  std::vector<Comparison> items_;
  std::size_t cursor_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_COMPARISON_LIST_H_
