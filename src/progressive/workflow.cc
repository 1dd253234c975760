#include "progressive/workflow.h"

namespace sper {

BlockCollection BuildTokenWorkflowBlocks(const ProfileStore& store,
                                         const TokenWorkflowOptions& options,
                                         TokenWorkflowTiming* timing) {
  TokenWorkflowTiming local;
  if (timing == nullptr) timing = &local;
  BlockCollection blocks = [&] {
    obs::ScopedPhase phase(options.telemetry, "token_blocking",
                           &timing->token_blocking_seconds);
    return TokenBlocking(store, options.token_blocking, options.num_threads);
  }();
  if (options.enable_purging) {
    obs::ScopedPhase phase(options.telemetry, "block_purging",
                           &timing->purging_seconds);
    blocks = BlockPurging(blocks, store.size(), options.purging);
  }
  if (options.enable_filtering) {
    obs::ScopedPhase phase(options.telemetry, "block_filtering",
                           &timing->filtering_seconds);
    BlockFilteringOptions filtering = options.filtering;
    filtering.num_threads = options.num_threads;
    blocks = BlockFiltering(blocks, filtering);
  }
  return blocks;
}

}  // namespace sper
