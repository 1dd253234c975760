#include "blocking/profile_index.h"

#include "core/page_resource.h"
#include "parallel/parallel_for.h"

namespace sper {

ProfileIndex::ProfileIndex(const BlockCollection& blocks,
                           std::size_t num_profiles,
                           std::size_t num_threads) {
  // The blocks split into ranges of about equal membership. Range r
  // counts its memberships of each profile p into
  // cursors[r * num_profiles + p]; one prefix over (p, r) turns the counts
  // into the range's write cursors, so that p's ids from range r follow
  // those from ranges 0..r-1. The counters start as zero pages, so
  // nothing zero-fills them here.
  std::vector<std::uint64_t> sizes(blocks.size());
  for (BlockId b = 0; b < blocks.size(); ++b) sizes[b] = blocks.block_size(b);
  const std::vector<IndexRange> ranges = BalancedChunks(sizes, num_threads);
  const std::span<const ProfileId> all = blocks.all_members();
  const auto members_of = [&](IndexRange range) {
    const std::size_t begin = blocks.members(range.begin).data() - all.data();
    const std::size_t end = range.end < blocks.size()
                                ? blocks.members(range.end).data() - all.data()
                                : all.size();
    return all.subspan(begin, end - begin);
  };
  ZeroedPages<std::uint64_t> cursors(ranges.size() * num_profiles);
  ParallelForRanges(ranges, [&](std::size_t r, IndexRange range) {
    std::uint64_t* const count = cursors.data() + r * num_profiles;
    for (ProfileId p : members_of(range)) ++count[p];
  });
  offsets_.resize(num_profiles + 1);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < num_profiles; ++p) {
    offsets_[p] = total;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      std::uint64_t& cursor = cursors[r * num_profiles + p];
      const std::uint64_t count = cursor;
      cursor = total;
      total += count;
    }
  }
  offsets_[num_profiles] = total;
  flat_.resize(total);
  ParallelForRanges(ranges, [&](std::size_t r, IndexRange range) {
    std::uint64_t* const cursor = cursors.data() + r * num_profiles;
    BlockId* const flat = flat_.data();
    for (std::size_t id = range.begin; id < range.end; ++id) {
      for (ProfileId p : blocks.members(static_cast<BlockId>(id))) {
        flat[cursor[p]++] = static_cast<BlockId>(id);
      }
    }
  });
}

BlockId ProfileIndex::LeastCommonBlock(ProfileId a, ProfileId b) const {
  std::span<const BlockId> la = BlocksOf(a);
  std::span<const BlockId> lb = BlocksOf(b);
  std::size_t x = 0, y = 0;
  while (x < la.size() && y < lb.size()) {
    if (la[x] < lb[y]) {
      ++x;
    } else if (lb[y] < la[x]) {
      ++y;
    } else {
      return la[x];
    }
  }
  return kInvalidBlock;
}

std::size_t ProfileIndex::CountCommonBlocks(ProfileId a, ProfileId b) const {
  std::size_t count = 0;
  ForEachCommonBlock(a, b, [&count](BlockId) { ++count; });
  return count;
}

}  // namespace sper
