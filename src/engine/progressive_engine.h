#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_store.h"
#include "engine/engine.h"
#include "engine/resolver.h"
#include "parallel/emission_pipeline.h"
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
/// Emission of the batch-refilling methods (PBS, PPS) runs on one of two
/// paths with the same output. The serial reference path computes each
/// refill inline in the pull that reaches it. The emission pipeline
/// (parallel/emission_pipeline.h) runs refill workers ahead of the pulls,
/// which read completed slots: `num_threads` workers on a plain engine
/// with num_threads > 1, started by the first pull, or one worker per
/// shard of a ShardedEngine with lookahead > 0. Either way PullMany()
/// copies the rest of the batch or slot group at hand in one insert. The
/// sort-based methods always emit serially, one Next() at a time.

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
  /// fields, num_threads, budget, lookahead and telemetry of `options`,
  /// and num_shards only to tell a plain engine (1) from one shard of a
  /// ShardedEngine (> 1), which pipelines on one worker and only when
  /// lookahead > 0. The store must outlive the engine. kPsn requires
  /// options.schema_key.
  ///
  /// `label` names the engine in contained-failure messages and
  /// fault-injection seams ("shard0" makes the refill seam
  /// "refill.shard0"); empty = a plain unlabeled engine ("refill").
  ProgressiveEngine(const ProfileStore& store,
                    const ResolverOptions& options, std::string label = {});

  /// The inner method's acronym, e.g. "PPS".
  std::string_view name() const override { return inner_->name(); }

  /// A plain engine serves one logical shard.
  std::size_t num_shards() const override { return 1; }

  /// Stops the stream: shuts down the emission pipeline (joining its
  /// refill workers) and flips the engine to exhausted. Idempotent.
  void Drain() override;

 private:
  /// The inner method's next comparison (pipelined or inline refills);
  /// budget and poison accounting live in BudgetedEngine::Pull().
  PullStatus PullUnbudgeted(Comparison& out,
                            const CancelToken& token) override;

  /// The rest of the current refill batch or slot group, up to `max`, in
  /// one copy; the sort-based methods take the default one-at-a-time loop.
  PullStatus PullManyUnbudgeted(std::vector<Comparison>& out,
                                std::size_t max,
                                const CancelToken& token) override;

  /// Points `batch` at a non-empty batch of the batch methods' stream:
  /// the pipeline's front slot or the serial path's refill batch.
  PullStatus NextBatch(const CancelToken& token, ComparisonList*& batch);

  /// Reaches the next non-empty group of the pipeline's completed slots,
  /// starting the refill workers on the first call.
  PullStatus PipelinedBatch(const CancelToken& token);

  /// The inline reference path: refills one index at a time, so the
  /// token check, fault seam and failure containment sit at the true
  /// refill boundary.
  PullStatus SerialBatch(const CancelToken& token);

  /// The sort-based methods: every Next() is one bounded unit of work.
  PullStatus SortedPull(Comparison& out, const CancelToken& token);

  /// Refill batch `index` appended to `out` on `worker`'s scratch, behind
  /// the refill fault seam — the one refill step of both paths.
  void Refill(std::size_t worker, std::size_t index, ComparisonList& out);

  /// Contains a refill failure: sticky status with instance label and the
  /// index of the failing refill batch, the same on both paths.
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
  /// One refill scratch per worker (the serial path uses the first),
  /// allocated with the engine and kept for its lifetime.
  std::vector<std::unique_ptr<BatchSource::Scratch>> scratch_;
  /// Registry sinks of the emission pipeline; must be declared before
  /// pipeline_ (the pipeline holds a pointer to it for its lifetime).
  EmissionPipelineMetrics pipeline_metrics_;
  // Members are destroyed in reverse declaration order: the pipeline must
  // join its workers before the scratch and inner_ they use go away.
  std::unique_ptr<EmissionPipeline<ComparisonList>> pipeline_;
  /// The slot the pulls are draining (owned by the pipeline); caching it
  /// keeps ring synchronization off the per-comparison path.
  ComparisonList* front_ = nullptr;
  /// The serial path's current refill batch; persists across cancelled
  /// pulls so the stream continues losslessly.
  ComparisonList serial_batch_;
  /// The serial path's next refill index.
  std::size_t next_refill_ = 0;
};

}  // namespace sper

#endif  // SPER_ENGINE_PROGRESSIVE_ENGINE_H_
