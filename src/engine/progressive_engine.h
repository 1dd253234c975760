#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/profile_store.h"
#include "core/types.h"
#include "engine/engine.h"
#include "engine/method.h"
#include "obs/telemetry.h"
#include "parallel/emission_pipeline.h"
#include "parallel/thread_pool.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"
#include "progressive/gs_psn.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/sa_psab.h"
#include "progressive/workflow.h"
#include "sorted/neighbor_list.h"

/// \file progressive_engine.h
/// The one-call facade over the whole library: profiles in, ranked
/// comparisons out. The engine wires the Token Blocking Workflow,
/// meta-blocking edge weighting and the chosen progressive method behind a
/// single constructor, runs every initialization hot path on
/// `num_threads` threads (identical output at every thread count), and
/// enforces an optional pay-as-you-go comparison budget on emission.
///
/// Emission is serial by default (Next() computes refills inline — the
/// reference path). With `lookahead > 0` the engine runs the emission
/// pipeline instead: a producer task computes refill batches strictly in
/// cursor order up to `lookahead` batches ahead, and Next() pops from
/// completed batches. The emitted sequence is bit-identical either way.

namespace sper {

/// Everything one engine instance needs to run one progressive ER task.
///
/// This is the *internal* per-engine configuration: public callers go
/// through `ResolverOptions` + `Resolver::Create` (engine/resolver.h),
/// which validates the configuration and picks the engine
/// implementation. (The old deprecated `EngineOptions` /
/// `ShardedEngineOptions` public shims were removed in PR 8.)
struct EngineConfig {
  /// Progressive method to run.
  MethodId method = MethodId::kPps;

  /// Threads used by the initialization phase (block filtering, edge
  /// weighting). Emission is always sequential — it is a pull-based
  /// stream. 0 means "one thread".
  std::size_t num_threads = 1;

  /// Maximum number of comparisons Next() will emit; 0 = unlimited. This
  /// is the paper's pay-as-you-go budget expressed at the API boundary:
  /// once exhausted, Next() returns nullopt even if the method could
  /// continue.
  std::uint64_t budget = 0;

  /// Emission pipeline lookahead: how many completed *queue slots* the
  /// producer task may run ahead of the consumer. A slot holds one or
  /// more consecutive refill batches — small refills are coalesced until
  /// a slot carries at least ~256 comparisons — so the bound on buffered
  /// precomputation is roughly lookahead * max(256, largest refill)
  /// comparisons, not lookahead individual refills. 0 = the serial
  /// reference path, where Next() computes refills inline. Applies to
  /// the batch-refilling methods (PBS, PPS; MethodHasBatchRefills); the
  /// sort-based methods ignore it. The emitted sequence is bit-identical
  /// at every setting — only wall-clock changes.
  std::size_t lookahead = 0;

  /// Blocking workflow for the equality-based methods (PBS, PPS).
  TokenWorkflowOptions workflow;
  /// Blocking-graph edge-weighting scheme for PBS/PPS.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// PPS comparisons retained per profile.
  std::size_t pps_kmax = 100;
  /// GS-PSN window range.
  std::size_t gs_wmax = 20;
  /// SA-PSAB suffix forest parameters.
  SuffixForestOptions suffix;
  /// Neighbor List construction for the sort-based methods.
  NeighborListOptions list;
  /// Schema-based blocking key; required by kPsn, ignored otherwise.
  SchemaKeyFn schema_key;
  /// Telemetry sink (phase timers, pipeline health metrics, spans).
  /// Default-constructed = disabled; the emitted stream is bit-identical
  /// either way. ShardedEngine hands each shard a "shard<S>."-prefixed
  /// sub-scope of the resolver's scope.
  obs::TelemetryScope telemetry;
  /// Names this engine instance in contained-failure messages and
  /// fault-injection seams ("shard0" makes the refill seam
  /// "refill.shard0"); empty = a plain unlabeled engine ("refill").
  std::string instance_label;
};

/// Facade emitter: owns the inner method emitter and its inputs. Being a
/// ProgressiveEmitter itself, it composes with every existing consumer
/// (evaluator, benches, dedup loops).
///
/// Direct construction is internal: public callers use
/// `Resolver::Create` (engine/resolver.h), which validates options and
/// picks plain vs sharded serving; ProgressiveEngine remains the plain
/// implementation behind that factory.
class ProgressiveEngine : public BudgetedEngine {
 public:
  /// Initialization phase: builds blocking structures (in parallel when
  /// options.num_threads > 1) and the method emitter; with
  /// options.lookahead > 0 it also starts the emission pipeline's
  /// producer. The store must outlive the engine. kPsn requires
  /// options.schema_key.
  ///
  /// `emission_pool` hosts the producer task when given (it must have one
  /// free worker per pipelined engine for the engine's lifetime, and must
  /// outlive the engine — ShardedEngine shares one pool across shards);
  /// nullptr makes the engine own a single-worker pool. Unused when
  /// lookahead == 0.
  ProgressiveEngine(const ProfileStore& store, EngineConfig options,
                    ThreadPool* emission_pool = nullptr);

  /// The inner method's acronym, e.g. "PPS".
  std::string_view name() const override { return inner_->name(); }

  /// A plain engine serves one logical shard.
  std::size_t num_shards() const override { return 1; }

  /// Stops the stream: shuts down the emission pipeline (joining its
  /// producer task) and flips the engine to exhausted. Idempotent.
  void Drain() override;

 private:
  /// The inner method's next comparison (pipelined or inline refills);
  /// budget and poison accounting live in BudgetedEngine::Pull().
  PullStatus PullUnbudgeted(Comparison& out,
                            const CancelToken& token) override;

  /// Pops the next comparison off the pipeline's completed batches.
  PullStatus PipelinedPull(Comparison& out, const CancelToken& token);

  /// The inline-refill reference path: for the batch methods the engine
  /// drives ProduceBatch itself (same sequence per the BatchSource
  /// contract) so the token check, fault seam, and failure containment
  /// sit at the true refill boundary; sort-based methods pull Next().
  PullStatus SerialPull(Comparison& out, const CancelToken& token);

  /// Contains a producer/refill failure: sticky status with instance
  /// label and batch cursor (the satellite fix for "rethrow loses
  /// origin").
  PullStatus Poison(std::size_t batch_index, std::exception_ptr error);

  EngineConfig options_;
  std::unique_ptr<ProgressiveEmitter> inner_;
  /// inner_ viewed through its refill-batch capability; nullptr for the
  /// sort-based methods.
  BatchSource* batch_source_ = nullptr;
  /// Fault-injection seam name of this engine's refill boundary
  /// ("refill" or "refill.<instance_label>").
  std::string fault_site_;
  /// Registry sinks of the emission pipeline; must be declared before
  /// pipeline_ (the pipeline holds a pointer to it for its lifetime).
  EmissionPipelineMetrics pipeline_metrics_;
  // Members are destroyed in reverse declaration order: the pipeline must
  // close (and its producer task exit) before the owned pool joins, and
  // both before inner_ — whose refills the producer runs — is destroyed.
  std::unique_ptr<ThreadPool> owned_emission_pool_;
  std::unique_ptr<EmissionPipeline<ComparisonList>> pipeline_;
  /// The ring slot Next() is draining (owned by the pipeline); caching it
  /// keeps ring synchronization off the per-comparison path.
  ComparisonList* front_ = nullptr;
  /// The serial path's current refill batch (batch methods, lookahead 0);
  /// persists across cancelled pulls so the stream continues losslessly.
  ComparisonList serial_batch_;
  /// Refill batches the serial path has produced (error context).
  std::size_t serial_batch_index_ = 0;
};

}  // namespace sper

#endif  // SPER_ENGINE_PROGRESSIVE_ENGINE_H_
