#include "blocking/block_filtering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "blocking/profile_index.h"
#include "core/types.h"
#include "parallel/parallel_for.h"

namespace sper {

BlockCollection BlockFiltering(const BlockCollection& input,
                               const BlockFilteringOptions& options) {
  ProfileId num_profiles = 0;
  for (ProfileId p : input.all_members()) {
    num_profiles = std::max(num_profiles, p + 1);
  }
  const ProfileIndex index(input, num_profiles, options.num_threads);

  // A block's rank is (|b|, id) packed into one integer: smaller blocks
  // first, block id as the deterministic tie.
  const auto rank = [&input](BlockId b) {
    return (static_cast<std::uint64_t>(input.block_size(b)) << 32) | b;
  };

  // Pass 1 (parallel over profiles): each profile's cut is the rank of its
  // ceil(ratio*|B_i|)-th smallest block, so it stays in block b iff
  // rank(b) <= cut. A block holding the profile has |b| >= 1, so cut 0
  // keeps none and UINT64_MAX keeps all. Each profile owns its slot, and
  // each chunk's rank buffer is sized here, so the workers allocate
  // nothing.
  std::vector<std::uint64_t> cuts(num_profiles, UINT64_MAX);
  const std::vector<IndexRange> chunks =
      StaticChunks(num_profiles, options.num_threads);
  std::size_t most_blocks = 0;
  for (ProfileId p = 0; p < num_profiles; ++p) {
    most_blocks = std::max(most_blocks, index.NumBlocksOf(p));
  }
  std::vector<std::vector<std::uint64_t>> chunk_ranks(chunks.size());
  for (std::vector<std::uint64_t>& ranks : chunk_ranks) {
    ranks.reserve(most_blocks);
  }
  ParallelForRanges(chunks, [&](std::size_t chunk, IndexRange range) {
    std::vector<std::uint64_t>& ranks = chunk_ranks[chunk];
    for (std::size_t p = range.begin; p < range.end; ++p) {
      std::span<const BlockId> blocks =
          index.BlocksOf(static_cast<ProfileId>(p));
      // Written so that a NaN or negative ratio retains nothing and a
      // huge one everything, with no out-of-range conversion.
      const double wanted =
          std::ceil(options.ratio * static_cast<double>(blocks.size()));
      if (wanted >= static_cast<double>(blocks.size())) continue;
      if (!(wanted >= 1.0)) {
        cuts[p] = 0;
        continue;
      }
      const std::size_t retained = static_cast<std::size_t>(wanted);
      ranks.clear();
      for (BlockId b : blocks) ranks.push_back(rank(b));
      std::nth_element(ranks.begin(), ranks.begin() + (retained - 1),
                       ranks.end());
      cuts[p] = ranks[retained - 1];
    }
  });

  // Pass 2: rebuild every block with the members whose cut admits it, in
  // block-id order; blocks left without a comparison are dropped. One
  // thread reads the members once, into space the input's totals bound,
  // so nothing reallocates. More threads split the blocks into ranges of
  // equal membership, count each block's admitted members (0 for a block
  // that is dropped), then assemble the survivors from the counts: a
  // second read, which one thread would pay for with nothing to gain.
  BlockCollection out(input.er_type(), input.split_index());
  std::vector<std::uint64_t> sizes;
  std::vector<IndexRange> block_ranges;
  if (options.num_threads > 1) {
    sizes.resize(input.size());
    for (BlockId b = 0; b < input.size(); ++b) sizes[b] = input.block_size(b);
    block_ranges = BalancedChunks(sizes, options.num_threads);
  }
  if (block_ranges.size() <= 1) {
    out.Reserve(input.size(), input.total_members(), input.total_key_bytes());
    std::vector<ProfileId> kept;
    for (BlockId b = 0; b < input.size(); ++b) {
      const std::uint64_t block_rank = rank(b);
      kept.clear();
      for (ProfileId p : input.members(b)) {
        if (block_rank <= cuts[p]) kept.push_back(p);
      }
      if (out.ComputeCardinality(kept) == 0) continue;
      out.Add(input.key(b), kept);
    }
    return out;
  }
  const ProfileId split = input.split_index();
  const bool dirty = input.er_type() == ErType::kDirty;
  ParallelForRanges(block_ranges, [&](std::size_t, IndexRange range) {
    for (std::size_t b = range.begin; b < range.end; ++b) {
      const std::uint64_t block_rank = rank(static_cast<BlockId>(b));
      std::uint64_t kept = 0, kept1 = 0;  // kept1: kept in source 1
      for (ProfileId p : input.members(static_cast<BlockId>(b))) {
        const bool admitted = block_rank <= cuts[p];
        kept += admitted;
        kept1 += admitted & (p < split);
      }
      const std::uint64_t cardinality =
          dirty ? kept * (kept - 1) / 2 : kept1 * (kept - kept1);
      sizes[b] = cardinality == 0 ? 0 : kept;
    }
  });
  std::vector<BlockId> survivors;
  std::vector<std::uint64_t> survivor_sizes;
  for (BlockId b = 0; b < input.size(); ++b) {
    if (sizes[b] == 0) continue;
    survivors.push_back(b);
    survivor_sizes.push_back(sizes[b]);
  }
  out.AddBlocks(
      survivor_sizes, [&](std::size_t k) { return input.key(survivors[k]); },
      [&](std::size_t k, ProfileId* members) {
        const std::uint64_t block_rank = rank(survivors[k]);
        for (ProfileId p : input.members(survivors[k])) {
          if (block_rank <= cuts[p]) *members++ = p;
        }
      },
      options.num_threads);
  return out;
}

}  // namespace sper
