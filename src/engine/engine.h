#ifndef SPER_ENGINE_ENGINE_H_
#define SPER_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/comparison.h"
#include "core/macros.h"
#include "core/status.h"
#include "parallel/cancel.h"
#include "progressive/emitter.h"

/// \file engine.h
/// The engine of the serving layer: a `ProgressiveEmitter` plus the
/// serving contract the `Resolver` builds on — a pay-as-you-go budget, an
/// emission counter, unified initialization diagnostics, and the
/// robustness contract: one cancellable pull (PullMany), sticky failure
/// containment (status), and graceful teardown (Drain). `Engine`
/// implements that contract once; its two subclasses, plain
/// (`ProgressiveEngine`) and sharded (`ShardedEngine`), only provide the
/// unbudgeted stream.

namespace sper {

/// One timed step of an engine's initialization, e.g. token blocking on
/// shard 2. Phase names are the telemetry phase names ("token_blocking",
/// "block_purging", "block_filtering", "method_build", ...).
struct InitPhase {
  std::string name;
  /// Shard the phase ran on; 0 for an unsharded engine, and for
  /// shard-spanning phases such as "partition".
  std::size_t shard = 0;
  double seconds = 0.0;
};

/// Aggregate facts about an engine's initialization phase, unified across
/// plain and sharded engines (diagnostics / benches).
struct InitStats {
  /// Wall-clock seconds spent in the engine's constructor. The per-phase
  /// breakdown is in `phases`; init_seconds stays the authoritative total
  /// (phases can overlap under concurrent shard construction, so their
  /// sum may exceed it).
  double init_seconds = 0.0;
  /// |B| of the workflow collection, summed over shards (0 for the
  /// sort-based methods).
  std::size_t num_blocks = 0;
  /// ||B|| of the workflow collection, summed over shards (0 for the
  /// sort-based methods).
  std::uint64_t aggregate_cardinality = 0;
  /// Profiles per shard, in shard order; empty for an unsharded engine.
  std::vector<std::size_t> shard_sizes;
  /// Per-phase breakdown of init_seconds, in execution order per shard.
  std::vector<InitPhase> phases;
};

/// Outcome of one Engine::PullMany.
enum class PullStatus {
  kOk,         // `out` holds the next comparisons of the stream
  kExhausted,  // stream over (source drained, budget spent, or engine
               // drained) — terminal for this request AND the stream
  kCancelled,  // the token fired first; the stream is fully intact and the
               // next pull (any token) continues bit-identically
  kError,      // the engine is poisoned — see status(); terminal, sticky
};

/// A ranked comparison stream (Next/name, inherited from
/// ProgressiveEmitter) plus budget accounting, init diagnostics, and the
/// robustness contract (one cancellable pull, sticky status, drain).
/// PullMany charges the budget, counts emissions, and short-circuits the
/// poisoned and drained states; subclasses only implement
/// PullUnbudgeted(), and PullManyUnbudgeted() where they hold whole
/// batches. Their constructors fill `stats_` and set `budget_`
/// (0 = unlimited).
///
/// Engines are NOT thread-safe: one consumer drains Next()/PullMany() at
/// a time (`Resolver::Serve` serializes concurrent requests on top of
/// this). Drain() must likewise be externally serialized against pulls —
/// the Resolver does so via its admission queue.
class Engine : public ProgressiveEmitter {
 public:
  /// Emission phase: the next best comparison, honoring the budget — a
  /// one-comparison PullMany with a token that never fires.
  std::optional<Comparison> Next() final {
    next_.clear();
    if (PullMany(next_, 1, CancelToken()) != PullStatus::kOk) {
      return std::nullopt;
    }
    return next_.front();
  }

  /// The one pull: appends the next comparisons of the stream to `out`,
  /// at most `max` (> 0) of them. kOk when it appended at least one.
  /// Otherwise it gives up (kCancelled) when `token` fires at a batch
  /// boundary, reports producer failures as kError instead of throwing,
  /// and reads kExhausted once the stream, the budget or the engine is
  /// drained. A null token never fires.
  ///
  /// Deadlines: a call that has to run a refill, or wait for a refill
  /// worker, checks `token` before it and again once the batch is in
  /// hand. If the token has fired by then, the call appends nothing and
  /// returns kCancelled; the batch stays buffered for the next call. A
  /// batch already buffered is copied without a check: one call copies at
  /// most the rest of one refill batch or pipeline slot group, or else
  /// checks `token` every 16 comparisons. So a caller that checks its
  /// token between calls is cut at the first batch boundary past its
  /// deadline, and overruns it by at most one refill (or wait) plus one
  /// copy, even when a single refill outlasts the deadline.
  PullStatus PullMany(std::vector<Comparison>& out, std::size_t max,
                      const CancelToken& token) {
    SPER_DCHECK(max > 0);
    if (!status_.ok()) return PullStatus::kError;
    if (drained_ || BudgetExhausted()) return PullStatus::kExhausted;
    // Capped at the budget left, so the budget still stops exactly.
    if (budget_ != 0) max = std::min<std::uint64_t>(max, budget_ - emitted_);
    const std::size_t before = out.size();
    const PullStatus pulled = PullManyUnbudgeted(out, max, token);
    emitted_ += out.size() - before;
    return pulled;
  }

  /// Comparisons emitted so far.
  std::uint64_t emitted() const { return emitted_; }

  /// True once the configured pay-as-you-go budget has been spent (never
  /// for budget 0, which means unlimited).
  bool BudgetExhausted() const { return budget_ != 0 && emitted_ >= budget_; }

  /// Initialization diagnostics.
  const InitStats& init_stats() const { return stats_; }

  /// Why the engine is poisoned; ok() while healthy. Sticky: once a
  /// producer failure is contained here, every later pull returns kError
  /// with this same status.
  const Status& status() const { return status_; }

  /// Stops the stream for good: abandons buffered batches, shuts down
  /// and joins any refill workers, and makes every later pull return
  /// kExhausted. Idempotent; must not race a pull (see class comment).
  virtual void Drain() = 0;

 protected:
  /// The next comparison of the underlying stream, ignoring the budget,
  /// for streams that emit one comparison at a time (the sort-based
  /// methods, the k-way merge). Must check `token` at batch granularity,
  /// and contain failures by setting `status_` and returning kError.
  virtual PullStatus PullUnbudgeted(Comparison& out,
                                    const CancelToken& token) = 0;

  /// Up to `max` next comparisons of the underlying stream appended to
  /// `out`, ignoring the budget; returns as PullMany. This default takes
  /// one PullUnbudgeted at a time. Its streams may serve many comparisons
  /// between their own token checks, so it checks `token` every 16.
  virtual PullStatus PullManyUnbudgeted(std::vector<Comparison>& out,
                                        std::size_t max,
                                        const CancelToken& token) {
    for (std::size_t n = 0; n < max; ++n) {
      if (n > 0 && n % 16 == 0 && token.valid() && token.cancelled()) break;
      Comparison next;
      const PullStatus pulled = PullUnbudgeted(next, token);
      if (pulled != PullStatus::kOk) {
        return n == 0 ? pulled : PullStatus::kOk;
      }
      out.push_back(next);
    }
    return PullStatus::kOk;
  }

  /// Filled by the subclass constructor (the initialization phase).
  InitStats stats_;
  /// Maximum emissions before the stream reads as exhausted; 0 =
  /// unlimited.
  std::uint64_t budget_ = 0;
  /// Sticky poison; set (once) by the unbudgeted pulls on producer
  /// failure.
  Status status_ = Status::Ok();
  /// Set by Drain() implementations; flips the stream to kExhausted.
  bool drained_ = false;

 private:
  std::uint64_t emitted_ = 0;
  /// Next()'s one-comparison pull buffer, kept so a drain through Next()
  /// does not allocate per comparison.
  std::vector<Comparison> next_;
};

}  // namespace sper

#endif  // SPER_ENGINE_ENGINE_H_
