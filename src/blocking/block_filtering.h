#ifndef SPER_BLOCKING_BLOCK_FILTERING_H_
#define SPER_BLOCKING_BLOCK_FILTERING_H_

#include "blocking/block_collection.h"

/// \file block_filtering.h
/// Block Filtering [12] (workflow step 3): retains every profile only in
/// its most important blocks. Importance of a block is inversely
/// proportional to its size — small blocks carry distinctive keys. The
/// paper keeps each profile in 80% of its smallest blocks.

namespace sper {

/// Options for Block Filtering.
struct BlockFilteringOptions {
  /// Every profile is kept in ceil(ratio * |B_i|) of its smallest blocks:
  /// all of them at ratio >= 1, none at ratio 0.
  double ratio = 0.8;
  /// Threads for the Profile Index, the per-profile cut pass and the
  /// block assembly (0 or 1 = sequential). The result is identical at
  /// every thread count.
  std::size_t num_threads = 1;
};

/// Returns a new collection in which every profile appears only in its
/// ceil(ratio*|B_i|) smallest blocks, ranked by (|b|, block id); blocks
/// left without a valid comparison are dropped. Relative order of
/// surviving blocks and of profiles inside blocks is preserved.
BlockCollection BlockFiltering(const BlockCollection& input,
                               const BlockFilteringOptions& options = {});

}  // namespace sper

#endif  // SPER_BLOCKING_BLOCK_FILTERING_H_
