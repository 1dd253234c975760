#ifndef SPER_PROGRESSIVE_WORKFLOW_H_
#define SPER_PROGRESSIVE_WORKFLOW_H_

#include "blocking/block_collection.h"
#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "core/profile_store.h"
#include "obs/telemetry.h"

/// \file workflow.h
/// The Token Blocking Workflow of the paper's experimental setup (Sec. 7):
///   (1) schema-agnostic Standard (Token) Blocking,
///   (2) Block Purging   (drop blocks with > 10% of the profiles),
///   (3) Block Filtering (keep every profile in 80% of its smallest blocks).
/// The result is the redundancy-positive block collection PBS and PPS
/// consume (step 4, edge weighting, happens inside those methods).

namespace sper {

/// Options of the Token Blocking Workflow.
struct TokenWorkflowOptions {
  TokenBlockingOptions token_blocking;
  BlockPurgingOptions purging;
  BlockFilteringOptions filtering;
  /// Disable individual steps (used by the workflow ablation bench).
  bool enable_purging = true;
  bool enable_filtering = true;
  /// Threads for token blocking and Block Filtering (purging is
  /// sequential). Overrides `filtering.num_threads`; the collection is
  /// identical at every thread count.
  std::size_t num_threads = 1;
  /// Telemetry sink for the per-step phase timers (spans + gauges);
  /// default-constructed = disabled.
  obs::TelemetryScope telemetry;
};

/// Per-step wall-clock seconds of one workflow run (always filled, even
/// with telemetry disabled — feeds InitStats::phases).
struct TokenWorkflowTiming {
  double token_blocking_seconds = 0.0;
  double purging_seconds = 0.0;
  double filtering_seconds = 0.0;
};

/// Runs workflow steps 1-3 and returns the resulting block collection.
/// When `timing` is given, fills it with the per-step breakdown.
BlockCollection BuildTokenWorkflowBlocks(
    const ProfileStore& store, const TokenWorkflowOptions& options = {},
    TokenWorkflowTiming* timing = nullptr);

}  // namespace sper

#endif  // SPER_PROGRESSIVE_WORKFLOW_H_
