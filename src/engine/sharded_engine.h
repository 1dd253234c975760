#ifndef SPER_ENGINE_SHARDED_ENGINE_H_
#define SPER_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/profile_store.h"
#include "core/store_partition.h"
#include "engine/engine.h"
#include "engine/method.h"
#include "engine/progressive_engine.h"
#include "engine/resolver.h"
#include "obs/telemetry.h"
#include "parallel/ordered_merge.h"
#include "progressive/emitter.h"

/// \file sharded_engine.h
/// Sharded serving (ROADMAP "Sharded serving"): hash-partition the
/// ProfileStore into S shard-local stores, run one ProgressiveEngine per
/// shard, and merge the per-shard ranked streams into one global emission
/// order. Initialization — the expensive blocking / meta-blocking phase —
/// runs per shard, with the shard constructions themselves fanned out on
/// the ThreadPool; emission stays a sequential pull-based stream in
/// *original* profile ids.
///
/// With `lookahead > 0` shard refills run *in parallel*: every
/// shard engine runs one emission pipeline worker (one thread per
/// non-barren shard), so when the k-way merge pops a shard head, the
/// refill it triggers is an O(1) pop from that shard's completed slots —
/// S shards keep S workers busy instead of serializing every
/// ProcessProfile/ProcessBlock on the merge thread.
///
/// Determinism contract: the merged stream depends only on (store,
/// options) — never on thread count, lookahead or timing. For
/// num_shards == 1 it is bit-identical to a plain ProgressiveEngine with
/// the same options. Note that for S > 1 the stream is a
/// different (still deterministic) order than unsharded: each shard ranks
/// comparisons against its own sub-collection, and only intra-shard pairs
/// are candidates — the standard recall trade-off of hash sharding.

namespace sper {

/// One ProgressiveEngine per hash shard behind a deterministic k-way
/// merged stream, expressed in the original store's profile ids.
///
/// Direct construction is internal: public callers use
/// `Resolver::Create` with `ResolverOptions::num_shards > 1`
/// (engine/resolver.h); ShardedEngine remains the sharded implementation
/// behind that factory.
class ShardedEngine : public BudgetedEngine {
 public:
  /// Partitions the store into `options.num_shards` hash shards, then
  /// constructs the per-shard engines concurrently on a ThreadPool. The
  /// store must outlive the engine only for construction; shards own
  /// copies of their profiles.
  ///
  /// The options are read at the sharded level: `budget` is the *global*
  /// pay-as-you-go budget across all shards (inner engines run
  /// unbudgeted; the merged stream is capped); `num_threads` is the total
  /// thread budget for *initialization* — shard initializations run
  /// concurrently and split it evenly; `lookahead` applies per shard and
  /// turns on the parallel refills described above, using one additional
  /// refill thread per non-barren shard (not counted against
  /// num_threads, and capped: past 64 non-barren shards the engine falls
  /// back to serial refills rather than spawn an OS thread per shard —
  /// the emitted stream is identical either way).
  ShardedEngine(const ProfileStore& store, const ResolverOptions& options);

  /// The underlying method's acronym, e.g. "PPS".
  std::string_view name() const override;

  /// Number of shards (== options.num_shards, at least 1).
  std::size_t num_shards() const override { return shards_.size(); }

  /// Stops the stream: drains every shard engine, joining its refill
  /// worker. Idempotent.
  void Drain() override;

 private:
  /// The globally next best comparison (original ids) off the k-way
  /// merge; the global budget is charged in BudgetedEngine::Pull(). A
  /// shard pull that gives up (token fired) surfaces as kCancelled with
  /// the merge heap, priming cursor, and pending refill intact; a shard
  /// that poisoned itself surfaces as kError with its status adopted.
  PullStatus PullUnbudgeted(Comparison& out,
                            const CancelToken& token) override;

  MethodId method_;
  std::vector<StoreShard> shards_;
  std::vector<std::unique_ptr<ProgressiveEngine>> engines_;
  KWayMerge<Comparison, ByWeightDesc> merge_;
  /// Per-*stream* draw counters ("merge.shard<S>.draws", stream order —
  /// barren shards register no stream); empty when telemetry is off.
  std::vector<obs::Counter*> draw_counters_;
  /// The token of the pull in flight, read by the merge-stream lambdas
  /// (set at the top of each PullUnbudgeted; engines are single-consumer
  /// so no synchronization is needed).
  CancelToken request_token_;
};

}  // namespace sper

#endif  // SPER_ENGINE_SHARDED_ENGINE_H_
