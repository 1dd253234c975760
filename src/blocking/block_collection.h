#ifndef SPER_BLOCKING_BLOCK_COLLECTION_H_
#define SPER_BLOCKING_BLOCK_COLLECTION_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/macros.h"
#include "core/types.h"
#include "parallel/parallel_for.h"

/// \file block_collection.h
/// A block collection B with its aggregate statistics (paper Sec. 3):
/// |B| (number of blocks) and ||B|| (total comparisons).
///
/// Storage is a flat CSR (compressed sparse row) layout: one contiguous
/// ProfileId array holds every block's members back to back, an offsets
/// array marks block boundaries, and all block keys are interned into a
/// single string arena. Compared to a vector of per-block heap vectors
/// this removes one pointer chase plus one allocation per block and keeps
/// the meta-blocking gather loop (paper Algorithm 5 line 10) streaming
/// over contiguous memory.
///
/// For Clean-Clean ER every block additionally records its *split point*:
/// members are sorted ascending and source-1 ids precede source-2 ids, so
/// one extra offset per block partitions it into its two source ranges.
/// Consumers that only ever need the opposite-source neighbors of a
/// profile (edge weighting, PPS) scan exactly that range — zero
/// per-element comparability branches in the hot loop.

namespace sper {

/// An ordered collection of blocks plus the ER-task geometry needed to
/// count comparisons (ER type and Clean-Clean split index). Block ids are
/// positions in the collection; Block Scheduling reorders the collection so
/// that ids equal processing rank.
class BlockCollection {
 public:
  /// Creates an empty collection for a task with the given geometry.
  /// `split_index` must equal the store's split index (== |P| for Dirty).
  BlockCollection(ErType er_type, ProfileId split_index)
      : er_type_(er_type), split_index_(split_index) {
    member_offsets_.push_back(0);
    key_offsets_.push_back(0);
  }

  /// Appends a block (members must be sorted ascending, duplicate-free),
  /// interning its key and caching its cardinality and Clean-Clean split
  /// point. Returns the new block's id.
  BlockId Add(std::string_view key, std::span<const ProfileId> members);

  /// Convenience overload for literal member lists (tests, examples).
  BlockId Add(std::string_view key,
              std::initializer_list<ProfileId> members) {
    return Add(key, std::span<const ProfileId>(members.begin(),
                                               members.size()));
  }

  /// Appends one block per entry of `sizes` on `num_threads` threads, over
  /// ranges of about equal membership: block k gets the key key(k) and the
  /// sizes[k] members that fill(k, out) writes to `out`, sorted ascending
  /// and duplicate-free. The result is the one Add() would build block by
  /// block. Every buffer is sized on the calling thread first, so the
  /// threads allocate nothing.
  template <typename KeyFn, typename FillFn>
  void AddBlocks(std::span<const std::uint64_t> sizes, KeyFn&& key,
                 FillFn&& fill, std::size_t num_threads) {
    const std::size_t first = size();
    const std::size_t count = sizes.size();
    member_offsets_.resize(first + count + 1);
    key_offsets_.resize(first + count + 1);
    for (std::size_t k = 0; k < count; ++k) {
      member_offsets_[first + k + 1] = member_offsets_[first + k] + sizes[k];
      key_offsets_[first + k + 1] = key_offsets_[first + k] + key(k).size();
    }
    members_.resize(member_offsets_.back());
    key_arena_.resize(key_offsets_.back());
    split_offsets_.resize(first + count);
    cardinalities_.resize(first + count);
    const std::vector<IndexRange> ranges = BalancedChunks(sizes, num_threads);
    std::vector<std::uint64_t> range_cardinality(ranges.size());
    ParallelForRanges(ranges, [&](std::size_t r, IndexRange range) {
      std::uint64_t sum = 0;
      for (std::size_t k = range.begin; k < range.end; ++k) {
        const BlockId id = static_cast<BlockId>(first + k);
        fill(k, members_.data() + member_offsets_[id]);
        const std::string_view block_key = key(k);
        std::copy(block_key.begin(), block_key.end(),
                  key_arena_.begin() +
                      static_cast<std::ptrdiff_t>(key_offsets_[id]));
        const auto [local_split, card] = SplitOf(members(id));
        split_offsets_[id] = member_offsets_[id] + local_split;
        cardinalities_[id] = card;
        sum += card;
      }
      range_cardinality[r] = sum;
    });
    for (std::uint64_t sum : range_cardinality) aggregate_cardinality_ += sum;
  }

  /// Pre-sizes the flat arrays for a known build (kills reallocation
  /// churn when a blocking builder knows its totals up front).
  void Reserve(std::size_t num_blocks, std::size_t total_members,
               std::size_t total_key_bytes);

  /// |B|: number of blocks.
  std::size_t size() const { return cardinalities_.size(); }

  bool empty() const { return cardinalities_.empty(); }

  /// The interned key of block `id` (valid while the collection lives).
  std::string_view key(BlockId id) const {
    return std::string_view(key_arena_)
        .substr(key_offsets_[id], key_offsets_[id + 1] - key_offsets_[id]);
  }

  /// |b_id|: number of profiles in the block.
  std::size_t block_size(BlockId id) const {
    return member_offsets_[id + 1] - member_offsets_[id];
  }

  /// All members of block `id`, sorted ascending.
  std::span<const ProfileId> members(BlockId id) const {
    return {members_.data() + member_offsets_[id],
            members_.data() + member_offsets_[id + 1]};
  }

  /// The source-1 members of block `id` (ids < split_index()); the whole
  /// block for Dirty ER.
  std::span<const ProfileId> source1(BlockId id) const {
    return {members_.data() + member_offsets_[id],
            members_.data() + split_offsets_[id]};
  }

  /// The source-2 members of block `id` (ids >= split_index()); empty for
  /// Dirty ER.
  std::span<const ProfileId> source2(BlockId id) const {
    return {members_.data() + split_offsets_[id],
            members_.data() + member_offsets_[id + 1]};
  }

  /// The comparable neighbors of profile `i` inside block `id` for
  /// Clean-Clean ER: the range of the *other* source. Callers must be on
  /// a Clean-Clean collection (Dirty ER keeps the j != i check instead).
  std::span<const ProfileId> OppositeSource(BlockId id, ProfileId i) const {
    return i < split_index_ ? source2(id) : source1(id);
  }

  /// Every member of every block, concatenated in block-id order.
  std::span<const ProfileId> all_members() const { return members_; }

  /// Σ|b_i|: total memberships across all blocks.
  std::size_t total_members() const { return members_.size(); }

  /// Total interned key bytes (for pre-sizing a derived collection).
  std::size_t total_key_bytes() const { return key_arena_.size(); }

  /// ||b_id||: comparisons the block yields — C(|b|,2) for Dirty ER,
  /// |b ∩ P1| * |b ∩ P2| for Clean-Clean ER.
  std::uint64_t Cardinality(BlockId id) const { return cardinalities_[id]; }

  /// ||B||: the aggregate cardinality, Σ ||b_i||.
  std::uint64_t AggregateCardinality() const { return aggregate_cardinality_; }

  /// Mean block size |b̄| = Σ|b| / |B|.
  double MeanBlockSize() const;

  /// The ER form this collection was built for.
  ErType er_type() const { return er_type_; }

  /// First source-2 profile id (== |P| for Dirty ER).
  ProfileId split_index() const { return split_index_; }

  /// Invokes `fn(i, j)` for every valid comparison of block `id`: all
  /// unordered pairs for Dirty ER, cross-source pairs for Clean-Clean ER
  /// (via the precomputed split point — no per-pair validity test).
  /// Pairs are visited in a deterministic order.
  template <typename Fn>
  void ForEachComparison(BlockId id, Fn&& fn) const {
    if (er_type_ == ErType::kDirty) {
      std::span<const ProfileId> ps = members(id);
      for (std::size_t x = 0; x < ps.size(); ++x) {
        for (std::size_t y = x + 1; y < ps.size(); ++y) fn(ps[x], ps[y]);
      }
    } else {
      std::span<const ProfileId> s1 = source1(id);
      std::span<const ProfileId> s2 = source2(id);
      for (ProfileId x : s1) {
        for (ProfileId y : s2) fn(x, y);
      }
    }
  }

  /// Computes the cardinality a member list would have under this
  /// geometry (without adding it).
  std::uint64_t ComputeCardinality(std::span<const ProfileId> members) const;

 private:
  /// A block's Clean-Clean split point (its number of source-1 members)
  /// and its cardinality, from its sorted members.
  std::pair<std::size_t, std::uint64_t> SplitOf(
      std::span<const ProfileId> members) const;

  ErType er_type_;
  ProfileId split_index_;

  // CSR members: block id -> [member_offsets_[id], member_offsets_[id+1])
  // into members_; split_offsets_[id] is the absolute position of the
  // first source-2 member (== the end offset for Dirty ER).
  std::vector<ProfileId> members_;
  std::vector<std::uint64_t> member_offsets_;  // size() + 1
  std::vector<std::uint64_t> split_offsets_;   // size(), indexed by id

  // Interned keys: block id -> [key_offsets_[id], key_offsets_[id+1])
  // into key_arena_.
  std::string key_arena_;
  std::vector<std::uint64_t> key_offsets_;  // size() + 1

  std::vector<std::uint64_t> cardinalities_;
  std::uint64_t aggregate_cardinality_ = 0;
};

}  // namespace sper

#endif  // SPER_BLOCKING_BLOCK_COLLECTION_H_
