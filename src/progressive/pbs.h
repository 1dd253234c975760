#ifndef SPER_PROGRESSIVE_PBS_H_
#define SPER_PROGRESSIVE_PBS_H_

#include <cstddef>
#include <memory>

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file pbs.h
/// Progressive Block Scheduling (PBS, paper Sec. 5.2.1, Algorithms 3-4).
///
/// Equality-based: works on the redundancy-positive blocks of any
/// schema-agnostic blocking workflow. Blocks are scheduled by increasing
/// cardinality (weight 1/||b||: small blocks carry distinctive keys);
/// inside every block, repeated comparisons are discarded with the Least
/// Common Block Index (LeCoBI) test and the survivors are ordered by their
/// blocking-graph edge weight.

namespace sper {

/// Options of PBS.
struct PbsOptions {
  /// Blocking-graph scheme used to order comparisons inside a block.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Threads for the initialization phase (the Profile Index and the kEjs
  /// degree pass; the rest of PBS initialization is already lazy).
  /// Emission may run on other threads through the BatchSource interface.
  std::size_t num_threads = 1;
  /// Telemetry sink for the initialization phase timers
  /// ("block_scheduling", "edge_weighting").
  obs::TelemetryScope telemetry;
};

/// The PBS emitter.
class PbsEmitter : public ProgressiveEmitter, public BatchSource {
 public:
  /// Initialization phase (Algorithm 3): schedules `blocks` by increasing
  /// cardinality, builds the Profile Index over the scheduled collection
  /// and processes the first block. `blocks` should come from a
  /// redundancy-positive workflow, e.g. BuildTokenWorkflowBlocks().
  PbsEmitter(const ProfileStore& store, const BlockCollection& blocks,
             const PbsOptions& options = {});

  /// Emission phase (Algorithm 4): pops the next best comparison of the
  /// current block; when the block's list empties, processes the next
  /// scheduled block. nullopt once every block has been processed.
  std::optional<Comparison> Next() override;

  /// The serial refill walk behind Next(): fills `out` with the next
  /// block's comparisons, skipping blocks whose comparisons were all
  /// LeCoBI-filtered. Advances the same cursor as Next().
  bool ProduceBatch(ComparisonList& out) { return refills_.Next(*this, out); }

  std::string_view name() const override { return "PBS"; }

  /// Batch k is scheduled block k (Algorithm 3 lines 4-12): LeCoBI
  /// assigns every pair to exactly one block, so no batch depends on
  /// another.
  std::size_t num_refills() const override { return scheduled_.size(); }
  std::size_t RefillBound(std::size_t index) const override;
  std::unique_ptr<Scratch> NewScratch() const override;
  void AppendRefill(std::size_t index, Scratch& scratch,
                    ComparisonList& out) const override;

  /// The scheduled block collection (diagnostics / tests).
  const BlockCollection& scheduled_blocks() const { return scheduled_; }

 private:
  const ProfileStore& store_;
  BlockCollection scheduled_;
  ProfileIndex index_;
  EdgeWeighter weighter_;
  RefillCursor refills_;  // Next()'s walk
  ComparisonList comparisons_;  // Next()'s current batch
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_PBS_H_
