#ifndef SPER_BLOCKING_PROFILE_INDEX_H_
#define SPER_BLOCKING_PROFILE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "blocking/block_collection.h"
#include "core/types.h"

/// \file profile_index.h
/// The Profile Index of Sec. 5.2: an inverted index from profile id to the
/// (ascending) ids of the blocks containing it. It powers the two core
/// operations of the equality-based methods: the LeCoBI repeated-comparison
/// test and Edge Weighting via parallel traversal of two block lists.
/// Stored in CSR layout for cache-friendly scans at web scale.

namespace sper {

/// Inverted index: profile id -> sorted block ids.
class ProfileIndex {
 public:
  /// Builds the index over a block collection for `num_profiles` profiles.
  /// The blocks are split into `num_threads` ranges of about equal
  /// membership, transposed each on a thread of its own; every range
  /// writes its ids after the earlier ranges' ids of the same profile, so
  /// each profile's list is ascending — the property both LeCoBI and Edge
  /// Weighting rely on — and the index is the same at every thread count.
  /// Each range holds 8 B·|P| of counters while the index builds.
  ProfileIndex(const BlockCollection& blocks, std::size_t num_profiles,
               std::size_t num_threads = 1);

  /// The ascending block ids containing profile `p` (the paper's B_p).
  std::span<const BlockId> BlocksOf(ProfileId p) const {
    return {flat_.data() + offsets_[p], flat_.data() + offsets_[p + 1]};
  }

  /// |B_p|: how many blocks contain profile `p`.
  std::size_t NumBlocksOf(ProfileId p) const {
    return offsets_[p + 1] - offsets_[p];
  }

  /// Σ_{p in [begin, end)} |B_p| in O(1): the number of index entries of a
  /// contiguous profile range. Lets parallel chunk workers pre-size their
  /// per-chunk buffers without a counting pass.
  std::uint64_t NumEntriesIn(std::size_t begin, std::size_t end) const {
    return offsets_[end] - offsets_[begin];
  }

  /// The Least Common Block Index operation (Sec. 5.2.1): the smallest
  /// block id shared by `a` and `b`, or kInvalidBlock when they share none.
  BlockId LeastCommonBlock(ProfileId a, ProfileId b) const;

  /// Visits every common block id of `a` and `b` in ascending order.
  template <typename Fn>
  void ForEachCommonBlock(ProfileId a, ProfileId b, Fn&& fn) const {
    std::span<const BlockId> la = BlocksOf(a);
    std::span<const BlockId> lb = BlocksOf(b);
    std::size_t x = 0, y = 0;
    while (x < la.size() && y < lb.size()) {
      if (la[x] < lb[y]) {
        ++x;
      } else if (lb[y] < la[x]) {
        ++y;
      } else {
        fn(la[x]);
        ++x;
        ++y;
      }
    }
  }

  /// Number of blocks shared by `a` and `b` (the CBS weight).
  std::size_t CountCommonBlocks(ProfileId a, ProfileId b) const;

  /// Number of profiles the index was built for.
  std::size_t num_profiles() const { return offsets_.size() - 1; }

 private:
  std::vector<std::uint64_t> offsets_;  // size num_profiles + 1
  std::vector<BlockId> flat_;
};

}  // namespace sper

#endif  // SPER_BLOCKING_PROFILE_INDEX_H_
