#include "blocking/block_collection.h"

#include <algorithm>

namespace sper {

std::uint64_t BlockCollection::ComputeCardinality(
    std::span<const ProfileId> members) const {
  return SplitOf(members).second;
}

BlockId BlockCollection::Add(std::string_view key,
                             std::span<const ProfileId> members) {
  const auto [local_split, card] = SplitOf(members);
  const std::uint64_t begin = members_.size();
  members_.insert(members_.end(), members.begin(), members.end());
  member_offsets_.push_back(members_.size());
  split_offsets_.push_back(begin + local_split);
  key_arena_.append(key);
  key_offsets_.push_back(key_arena_.size());
  cardinalities_.push_back(card);
  aggregate_cardinality_ += card;
  return static_cast<BlockId>(cardinalities_.size() - 1);
}

std::pair<std::size_t, std::uint64_t> BlockCollection::SplitOf(
    std::span<const ProfileId> members) const {
  SPER_DCHECK(std::is_sorted(members.begin(), members.end()));
  // One lower_bound per block at build time buys branch-free scans on
  // every later traversal.
  const std::size_t local_split =
      er_type_ == ErType::kDirty
          ? members.size()
          : static_cast<std::size_t>(
                std::lower_bound(members.begin(), members.end(),
                                 split_index_) -
                members.begin());
  const std::uint64_t n = members.size();
  const std::uint64_t n1 = local_split;
  const std::uint64_t n2 = n - n1;
  return {local_split, er_type_ == ErType::kDirty ? n * (n - 1) / 2 : n1 * n2};
}

void BlockCollection::Reserve(std::size_t num_blocks,
                              std::size_t total_members,
                              std::size_t total_key_bytes) {
  members_.reserve(total_members);
  member_offsets_.reserve(num_blocks + 1);
  split_offsets_.reserve(num_blocks);
  key_arena_.reserve(total_key_bytes);
  key_offsets_.reserve(num_blocks + 1);
  cardinalities_.reserve(num_blocks);
}

double BlockCollection::MeanBlockSize() const {
  if (empty()) return 0.0;
  return static_cast<double>(members_.size()) / static_cast<double>(size());
}

}  // namespace sper
