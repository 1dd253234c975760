#include "blocking/block_purging.h"

namespace sper {

BlockCollection BlockPurging(const BlockCollection& input,
                             std::size_t num_profiles,
                             const BlockPurgingOptions& options) {
  const double max_size =
      options.max_size_ratio * static_cast<double>(num_profiles);
  const auto kept = [&](BlockId id) {
    return !(static_cast<double>(input.block_size(id)) > max_size);
  };
  // One pass over the CSR offsets (O(|B|), no member scan) sizes the
  // survivors, so the collection is built with zero reallocations.
  std::size_t kept_blocks = 0, kept_members = 0, kept_key_bytes = 0;
  for (BlockId id = 0; id < input.size(); ++id) {
    if (!kept(id)) continue;
    ++kept_blocks;
    kept_members += input.block_size(id);
    kept_key_bytes += input.key(id).size();
  }

  BlockCollection out(input.er_type(), input.split_index());
  out.Reserve(kept_blocks, kept_members, kept_key_bytes);
  for (BlockId id = 0; id < input.size(); ++id) {
    if (kept(id)) out.Add(input.key(id), input.members(id));
  }
  return out;
}

}  // namespace sper
