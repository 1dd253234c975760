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
/// The abstract engine interface of the serving layer. Every engine —
/// plain (`ProgressiveEngine`), sharded (`ShardedEngine`), and whatever
/// comes next — is a `ProgressiveEmitter` plus the serving contract the
/// `Resolver` builds on: a pay-as-you-go budget, an emission counter,
/// unified initialization diagnostics, and the robustness contract —
/// cancellable pulls (Pull, and PullMany in bulk), sticky failure
/// containment (status), and graceful teardown (Drain). `BudgetedEngine`
/// implements that contract once, so concrete engines only provide the
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

/// Outcome of one Engine::Pull.
enum class PullStatus {
  kOk,         // `out` holds the next comparison of the stream
  kExhausted,  // stream over (source drained, budget spent, or engine
               // drained) — terminal for this request AND the stream
  kCancelled,  // the token fired first; the stream is fully intact and the
               // next Pull (any token) continues bit-identically
  kError,      // the engine is poisoned — see status(); terminal, sticky
};

/// The engine interface: a ranked comparison stream (Next/name, inherited
/// from ProgressiveEmitter) plus budget accounting, init diagnostics, and
/// the robustness contract (cancellable pulls, sticky status, drain).
///
/// Engines are NOT thread-safe: one consumer drains Next()/Pull()/
/// PullMany() at a time (`Resolver::Serve` serializes concurrent requests
/// on top of this). Drain() must likewise be externally serialized
/// against pulls — the Resolver does so via its admission queue.
class Engine : public ProgressiveEmitter {
 public:
  /// Comparisons emitted so far.
  virtual std::uint64_t emitted() const = 0;

  /// True once the configured pay-as-you-go budget has been spent (never
  /// for budget 0, which means unlimited).
  virtual bool BudgetExhausted() const = 0;

  /// Initialization diagnostics.
  virtual const InitStats& init_stats() const = 0;

  /// Number of hash shards serving the stream (1 for a plain engine).
  virtual std::size_t num_shards() const = 0;

  /// The cancellable pull: like Next(), but gives up (kCancelled) when
  /// `token` fires at a batch boundary, and reports producer failures as
  /// kError instead of throwing. A null token never fires, making this a
  /// strict superset of Next().
  virtual PullStatus Pull(Comparison& out, const CancelToken& token) = 0;

  /// The bulk pull: appends the next comparisons of the stream to `out`,
  /// at most `max` (> 0) of them, under Pull's contract. kOk when it
  /// appended at least one; otherwise exactly what Pull would have
  /// returned. One call copies at most the rest of one refill batch or
  /// pipeline slot group, or else checks `token` every 16 comparisons, so
  /// a caller that checks its token between calls overruns a deadline by
  /// at most one such step.
  virtual PullStatus PullMany(std::vector<Comparison>& out, std::size_t max,
                              const CancelToken& token) = 0;

  /// Why the engine is poisoned; ok() while healthy. Sticky: once a
  /// producer failure is contained here, every later Pull returns kError
  /// with this same status.
  virtual const Status& status() const = 0;

  /// Stops the stream for good: abandons buffered batches, shuts down
  /// and joins any refill workers, and makes every later Pull return
  /// kExhausted. Idempotent; must not race Pull (see class comment).
  virtual void Drain() = 0;
};

/// Implements the budget and stats accounting of the Engine contract once:
/// Pull() and PullMany() charge the budget, count emissions, and
/// short-circuit the poisoned and drained states; concrete engines only
/// implement PullUnbudgeted(), and PullManyUnbudgeted() where they hold
/// whole batches. Derived constructors fill `stats_` and set `budget_`
/// (0 = unlimited).
class BudgetedEngine : public Engine {
 public:
  /// Emission phase: the next best comparison, honoring the budget.
  std::optional<Comparison> Next() final {
    Comparison out;
    return Pull(out, CancelToken()) == PullStatus::kOk
               ? std::optional<Comparison>(out)
               : std::nullopt;
  }

  PullStatus Pull(Comparison& out, const CancelToken& token) final {
    if (!status_.ok()) return PullStatus::kError;
    if (drained_ || BudgetExhausted()) return PullStatus::kExhausted;
    const PullStatus pulled = PullUnbudgeted(out, token);
    if (pulled == PullStatus::kOk) ++emitted_;
    return pulled;
  }

  PullStatus PullMany(std::vector<Comparison>& out, std::size_t max,
                      const CancelToken& token) final {
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

  std::uint64_t emitted() const final { return emitted_; }

  bool BudgetExhausted() const final {
    return budget_ != 0 && emitted_ >= budget_;
  }

  const InitStats& init_stats() const final { return stats_; }

  const Status& status() const final { return status_; }

 protected:
  /// The next comparison of the underlying stream, ignoring the budget.
  /// Must honor the Pull contract: check `token` at batch granularity,
  /// contain failures by setting `status_` and returning kError.
  virtual PullStatus PullUnbudgeted(Comparison& out,
                                    const CancelToken& token) = 0;

  /// Up to `max` next comparisons of the underlying stream appended to
  /// `out`, ignoring the budget; returns as PullMany. This default takes
  /// one PullUnbudgeted at a time, for streams without whole batches to
  /// copy (the k-way merge, the sort-based methods). Those may serve many
  /// pulls between their own token checks, so it checks `token` every 16.
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

  /// Filled by the derived constructor (the initialization phase).
  InitStats stats_;
  /// Maximum emissions before the stream reads as exhausted; 0 =
  /// unlimited.
  std::uint64_t budget_ = 0;
  /// Sticky poison; set (once) by PullUnbudgeted on producer failure.
  Status status_ = Status::Ok();
  /// Set by Drain() implementations; flips the stream to kExhausted.
  bool drained_ = false;

 private:
  std::uint64_t emitted_ = 0;
};

}  // namespace sper

#endif  // SPER_ENGINE_ENGINE_H_
