#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "core/profile_store.h"
#include "engine/engine.h"
#include "engine/resolver.h"
#include "parallel/emission_pipeline.h"
#include "parallel/thread_pool.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file progressive_engine.h
/// The one-call facade over the whole library: profiles in, ranked
/// comparisons out. The engine wires the Token Blocking Workflow,
/// meta-blocking edge weighting and the chosen progressive method behind a
/// single constructor, runs every initialization hot path on
/// `num_threads` threads (identical output at every thread count), and
/// enforces an optional pay-as-you-go comparison budget on emission.
///
/// Emission is serial by default (Next() computes refills inline — the
/// reference path). Given an emission pool and `lookahead > 0`, the
/// engine runs the emission pipeline instead: a producer task on that
/// pool computes refill batches strictly in cursor order up to
/// `lookahead` batches ahead, and Next() pops from completed batches. The
/// emitted sequence is bit-identical either way. Only ShardedEngine (and
/// tests) provide a pool: on one shard the pipeline is slower than the
/// serial path, so ResolverOptions::Validate() rejects it there.

namespace sper {

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
  /// options.num_threads > 1) and the method emitter. Reads the method
  /// fields, num_threads, budget, lookahead and telemetry of `options`;
  /// num_shards is the caller's business. The store must outlive the
  /// engine. kPsn requires options.schema_key.
  ///
  /// `emission_pool` hosts the emission pipeline's producer task; with
  /// options.lookahead > 0 and a batch-refilling method it is required
  /// (one free worker per pipelined engine for the engine's lifetime, and
  /// it must outlive the engine — ShardedEngine shares one pool across
  /// shards). Unused otherwise. `label` names the engine in
  /// contained-failure messages and fault-injection seams ("shard0" makes
  /// the refill seam "refill.shard0"); empty = a plain unlabeled engine
  /// ("refill").
  ProgressiveEngine(const ProfileStore& store,
                    const ResolverOptions& options,
                    ThreadPool* emission_pool = nullptr,
                    std::string label = {});

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

  /// The constructor's `label` (see there).
  std::string label_;
  std::unique_ptr<ProgressiveEmitter> inner_;
  /// inner_ viewed through its refill-batch capability; nullptr for the
  /// sort-based methods.
  BatchSource* batch_source_ = nullptr;
  /// Fault-injection seam name of this engine's refill boundary
  /// ("refill" or "refill.<label>").
  std::string fault_site_;
  /// Registry sinks of the emission pipeline; must be declared before
  /// pipeline_ (the pipeline holds a pointer to it for its lifetime).
  EmissionPipelineMetrics pipeline_metrics_;
  // Members are destroyed in reverse declaration order: the pipeline must
  // close (and its producer task exit) before inner_ — whose refills the
  // producer runs — is destroyed.
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
