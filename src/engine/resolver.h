#ifndef SPER_ENGINE_RESOLVER_H_
#define SPER_ENGINE_RESOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "blocking/suffix_forest.h"
#include "core/profile_store.h"
#include "core/status.h"
#include "core/types.h"
#include "engine/engine.h"
#include "engine/method.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "parallel/cancel.h"
#include "progressive/workflow.h"
#include "sorted/neighbor_list.h"

/// \file resolver.h
/// The unified serving API: one `Resolver` in front of every engine
/// implementation, serving pay-as-you-go resolve requests from its
/// long-lived ranked stream.
///
/// The paper's consumer is a client that repeatedly asks a long-lived
/// resolver for "the next best comparisons under my budget". This layer
/// makes that the public surface:
///
///   - `ResolverOptions` is the library's one configuration struct
///     (method, threads, shards, lookahead, global budget, method knobs)
///     — validated with a clear error `Status` instead of silently
///     falling back, and read directly by both engines;
///   - `Resolver::Create(store, options)` picks the engine (plain
///     `ProgressiveEngine`, whose PPS/PBS refills run on `num_threads`
///     workers, or `ShardedEngine` for `num_shards > 1`, whose shards run
///     one refill worker each for `lookahead > 0`) and holds it as an
///     `Engine`;
///   - `Resolver::Serve(ResolveRequest)` is the one request path: it
///     draws a budgeted slice off the shared stream under ticketed FIFO
///     admission — concurrent requests are admitted strictly in ticket
///     order, and concatenating the per-request slices in ticket order is
///     bit-identical to one un-batched drain of the same resolver.
///
/// Backpressure: refill workers keep producing between requests, but only
/// up to their bounded ring — 4 slots per worker on one shard, `lookahead`
/// slots per shard — so a slow consumer never buffers more than the rings,
/// and a burst of requests is served from slots the workers already
/// completed (see parallel/emission_pipeline.h).

namespace sper {

/// Everything a Resolver needs to serve one progressive ER task: the
/// library's one configuration struct, validated by Validate() and read
/// as-is by the engines Resolver::Create builds (a shard engine gets a
/// copy with its own telemetry sub-scope).
struct ResolverOptions {
  /// Progressive method to run.
  MethodId method = MethodId::kPps;

  /// Threads for the initialization phase (token blocking, block
  /// filtering, edge weighting and the PPS init pass; split across shard
  /// constructions when sharded) and, on
  /// one shard, the PPS/PBS refill workers: num_threads > 1 computes
  /// refills on that many threads ahead of the consumer, started by the
  /// first pull; 1 keeps the serial reference path. Each refill worker
  /// holds an 8 B·|P| accumulator for the resolver's lifetime. The stream
  /// is bit-identical at every setting. Must be in [1, kMaxThreads] — 0
  /// is rejected by Validate() rather than silently meaning "one thread".
  std::size_t num_threads = 1;

  /// Hash shards. 1 = plain engine; > 1 partitions the store and serves
  /// one engine per shard behind a deterministic k-way merged stream in
  /// original profile ids. Must be in [1, kMaxShards].
  std::size_t num_shards = 1;

  /// Global pay-as-you-go budget: maximum comparisons the resolver will
  /// emit across all requests and drains; 0 = unlimited.
  std::uint64_t budget = 0;

  /// Emission pipeline lookahead, per shard: how many completed slots
  /// each shard's refill worker may run ahead of the k-way merge; 0 = the
  /// serial reference path. A slot holds a fixed group of consecutive
  /// refill batches (up to 64, fixed by the built state). Applies to the
  /// batch-refilling methods (PBS, PPS); the sort-based methods ignore it.
  /// The emitted stream is bit-identical at every setting. Must be
  /// <= kMaxLookahead, and 0 when num_shards == 1: one shard pipelines
  /// through num_threads refill workers instead.
  std::size_t lookahead = 0;

  /// Blocking workflow for the equality-based methods (PBS, PPS).
  /// `filtering.ratio` and `purging.max_size_ratio` must be finite and
  /// >= 0.
  TokenWorkflowOptions workflow;
  /// Blocking-graph edge-weighting scheme for PBS/PPS.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// PPS comparisons retained per profile (PPS only; must be > 0).
  std::size_t pps_kmax = 100;
  /// GS-PSN window range.
  std::size_t gs_wmax = 20;
  /// SA-PSAB suffix forest parameters.
  SuffixForestOptions suffix;
  /// Neighbor List construction for the sort-based methods.
  NeighborListOptions list;
  /// Schema-based blocking key; required by kPsn, ignored otherwise.
  SchemaKeyFn schema_key;

  /// Telemetry sink: hand a scope into an obs::Registry to record
  /// per-phase init timings (per shard when sharded), emission-pipeline
  /// health, k-way-merge draw balance and per-request serving metrics
  /// ("session.queue_wait_ns", "session.service_ns",
  /// "session.slice_comparisons" histograms plus "session.resolve"
  /// spans). Default-constructed = disabled; the emitted stream is
  /// bit-identical either way.
  obs::TelemetryScope telemetry;

  /// Validation bounds (shared with the CLI's strict flag parsing).
  static constexpr std::size_t kMaxThreads = 256;
  static constexpr std::size_t kMaxShards = 1024;
  static constexpr std::size_t kMaxLookahead = 4096;

  /// OK iff the configuration is servable; otherwise an InvalidArgument
  /// Status naming the offending field. Called by Resolver::Create.
  Status Validate() const;
};

/// Identifies the client behind a request for per-client QoS (token-bucket
/// rate limiting, shed-backoff state) in the serving layer
/// (src/serving/qos.h). 0 = anonymous: anonymous requests share one
/// bucket. The plain Resolver ignores it — FIFO admission is client-blind.
using ClientId = std::uint64_t;

/// Priority class of a request, used by the QoS admission controller's
/// weighted-round-robin lanes (src/serving/qos.h). The plain Resolver
/// ignores it — FIFO admission is priority-blind; QoS scheduling is the
/// serving layer's job.
enum class Priority : std::uint8_t {
  kInteractive = 0,  // latency-sensitive, highest weight
  kBatch = 1,        // throughput work, middle weight
  kBestEffort = 2,   // scavenger class, lowest weight
};
inline constexpr std::size_t kNumPriorities = 3;

/// "interactive" / "batch" / "best_effort" (metric-name-safe spellings).
std::string_view ToString(Priority priority);

/// Inverse of ToString; also accepts "besteffort" and "best-effort".
/// nullopt for unknown names.
std::optional<Priority> ParsePriority(std::string_view name);

/// One pay-as-you-go request against a Resolver (Resolver::Serve) or a QoS
/// admission controller in front of one (serving/qos.h).
struct ResolveRequest {
  /// Comparisons this request pays for: the returned slice holds at most
  /// this many. Unlike ResolverOptions::budget, 0 here buys nothing — a
  /// zero-budget request is admitted (it takes a ticket) but returns an
  /// empty slice without consuming the stream.
  std::uint64_t budget = 0;

  /// Response size cap: the slice additionally holds at most this many
  /// comparisons (a network frontend's message bound). 0 = no cap beyond
  /// `budget`. Budget beyond the cap is NOT spent — pay only for what is
  /// delivered.
  std::size_t max_batch = 0;

  /// Wall-clock deadline in milliseconds, measured from *arrival* (queue
  /// wait counts — an interactive client cares about total latency, not
  /// service time); 0 = none. An expired request returns whatever partial
  /// slice it drew with `deadline_exceeded()` set; nothing is torn down and
  /// the next ticket continues the stream bit-identically. FIFO admission
  /// is never skipped: an expired queued request still takes its turn,
  /// it just draws nothing once admitted.
  std::uint64_t deadline_ms = 0;

  /// Optional external cancellation: when this token fires mid-slice the
  /// request returns its partial slice with `cancelled()` set (same
  /// lossless-continuation guarantee as a deadline). Combined with
  /// deadline_ms, whichever fires first wins. Default = never fires.
  CancelToken cancel;

  /// Who is asking (0 = anonymous). Read by the QoS admission controller
  /// for per-client rate limiting; ignored by the plain Resolver. The
  /// network server (src/net/server.h) substitutes its per-connection id
  /// for 0 so anonymous remote clients still get per-connection QoS.
  ClientId client_id = 0;

  /// The request's priority class. Read by the QoS admission controller's
  /// weighted lanes; ignored by the plain Resolver.
  Priority priority = Priority::kInteractive;

  /// Validation bounds shared by every request-accepting surface (see
  /// ValidateResolveRequest below). kMaxBatch also bounds one wire
  /// response frame: net/wire.h sizes kMaxFramePayload so a slice of
  /// kMaxBatch comparisons always fits one frame.
  static constexpr std::size_t kMaxBatch = 1u << 20;
  static constexpr std::uint64_t kMaxDeadlineMs = 86'400'000;  // 24 h
};

/// The one request validator: Resolver::Serve and
/// QosAdmissionController::Resolve call it first and reject an invalid
/// request (kRejected with this status) before it takes a ticket, a lane
/// slot or a client entry; the wire decoder, net::Client and the CLI
/// check with it too, before a request leaves their hands:
/// max_batch <= kMaxBatch, deadline_ms <= kMaxDeadlineMs, priority a
/// known class. `budget` is intentionally unbounded — delivery is capped
/// by max_batch (the server clamps 0 = uncapped to kMaxBatch), so a huge
/// budget buys many slices, never one huge response. OK iff servable;
/// InvalidArgument naming the offending field otherwise.
Status ValidateResolveRequest(const ResolveRequest& request);

/// What ultimately happened to a request — the one authoritative outcome
/// of a ResolveResult. Exactly one value applies per result; the legacy
/// `deadline_exceeded()` / `cancelled()` readers and the `status` field
/// derive from it (see ResolveResult).
enum class ResolveOutcome : std::uint8_t {
  /// Admitted and served normally. The slice may still be short or empty
  /// when the stream or a budget ran out — see the `stream_exhausted` /
  /// `budget_exhausted` flags, which are orthogonal stream facts, not
  /// outcomes.
  kServed = 0,
  /// Admitted, but the deadline passed before the slice filled; the
  /// partial slice is returned and the stream is intact.
  kDeadlineExpired,
  /// Admitted, but the request's CancelToken fired first; partial slice
  /// as above.
  kCancelled,
  /// Never admitted: load-shed by the QoS controller (queue bound or
  /// rate limit). status is ResourceExhausted and `retry_after_ms` holds
  /// the backoff hint. The stream was not consumed.
  kShed,
  /// Never served: the QoS controller evicted the queued request because
  /// its deadline would expire before its estimated service start. Same
  /// client-visible meaning as kDeadlineExpired (deadline_exceeded()
  /// reads true), but no stream capacity was spent on it.
  kEvicted,
  /// Never admitted: the request failed ValidateResolveRequest (status
  /// InvalidArgument naming the field), or the resolver is draining or
  /// its engine was already poisoned (status FailedPrecondition).
  kRejected,
  /// The request observed the engine's contained producer failure first;
  /// status is Internal with shard/batch context. Terminal for the
  /// resolver (later requests get kRejected).
  kFailed,
};

/// Stable lowercase name ("served", "deadline_expired", ...).
std::string_view ToString(ResolveOutcome outcome);

/// One served slice of the resolver's ranked stream.
struct ResolveResult {
  /// FIFO admission ticket: slices concatenated in ticket order are
  /// bit-identical to one un-batched drain. Tickets count up from 0 per
  /// resolver, densely until the first Drain(): a drain queues on a
  /// ticket of its own, which no request is ever given.
  std::uint64_t ticket = 0;

  /// The next best comparisons, in global emission order; at most
  /// min(budget, max_batch) of them. Shorter (possibly empty) when the
  /// stream ran dry or the resolver's global budget ran out mid-slice.
  std::vector<Comparison> comparisons;

  /// The underlying method ran out of comparisons during this slice.
  /// Orthogonal to `outcome` (a kServed slice can be the one that drains
  /// the stream).
  bool stream_exhausted = false;

  /// The resolver's global budget (ResolverOptions::budget) ran out
  /// during, or before, this slice. Orthogonal to `outcome`.
  bool budget_exhausted = false;

  /// The one authoritative disposition of the request. Everything below
  /// derives from it; new dispositions (QoS shed, eviction) extend this
  /// enum instead of growing another ad-hoc flag.
  ResolveOutcome outcome = ResolveOutcome::kServed;

  /// Why the request could not be (fully) served, as a transportable
  /// error. Ok for kServed/kDeadlineExpired/kCancelled/kEvicted (a cut is
  /// not an error); ResourceExhausted with a human-readable reason for
  /// kShed; FailedPrecondition for kRejected; Internal — with shard and
  /// batch context — for kFailed. Carries the message; `outcome` carries
  /// the decision.
  Status status = Status::Ok();

  /// Backoff hint for kShed results: the client should wait at least this
  /// long before retrying (token-bucket deficit, multiplied by an
  /// exponential per-client backoff under consecutive sheds). 0 for every
  /// other outcome.
  std::uint64_t retry_after_ms = 0;

  /// Thin readers over `outcome`, kept for the pre-QoS call sites.
  /// deadline_exceeded() covers eviction too: an evicted request's
  /// deadline is equally missed, the controller just found out before
  /// spending stream capacity on it.
  bool deadline_exceeded() const {
    return outcome == ResolveOutcome::kDeadlineExpired ||
           outcome == ResolveOutcome::kEvicted;
  }
  bool cancelled() const { return outcome == ResolveOutcome::kCancelled; }

  /// True when the request was admitted to the stream (it holds a live
  /// ticket and its slice — possibly empty — is part of the global
  /// emission order). Shed/evicted/rejected requests never consume the
  /// stream.
  bool admitted() const {
    return outcome == ResolveOutcome::kServed ||
           outcome == ResolveOutcome::kDeadlineExpired ||
           outcome == ResolveOutcome::kCancelled ||
           outcome == ResolveOutcome::kFailed;
  }
};

/// The unified serving facade: owns one Engine picked by Create() and the
/// FIFO admission state Serve() runs under. Being a ProgressiveEmitter, a
/// Resolver still composes with every streaming consumer (evaluator,
/// benches) as a plain un-batched drain.
///
/// Thread-safety: Serve() may be called from any number of threads; all
/// callers share this resolver's stream and admission order, and each
/// counts what it received. Next() is a single-consumer drain and must
/// not be interleaved with concurrent Serve() calls.
class Resolver : public ProgressiveEmitter {
 public:
  /// Validates `options`, builds the matching Engine (a ProgressiveEngine
  /// for one shard, with num_threads refill workers; a ShardedEngine
  /// otherwise, with pipelined shard refills when lookahead > 0) and
  /// wraps it. Returns InvalidArgument without touching the store when
  /// validation fails.
  ///
  /// Lifetime: the store must outlive the resolver. (With num_shards > 1
  /// the shards copy their profiles and only construction reads the
  /// store, but the plain engine keeps references into it for its whole
  /// emission phase — see ProgressiveEmitter's lifetime note — so the
  /// portable contract is store-outlives-resolver.)
  static Result<std::unique_ptr<Resolver>> Create(const ProfileStore& store,
                                                  ResolverOptions options);

  /// Un-batched drain: the globally next best comparison, honoring the
  /// global budget.
  std::optional<Comparison> Next() override { return engine_->Next(); }

  /// The underlying method's acronym, e.g. "PPS".
  std::string_view name() const override { return engine_->name(); }

  /// Comparisons emitted so far (requests + drains combined).
  std::uint64_t emitted() const { return engine_->emitted(); }

  /// True once the global budget has been spent (never for budget 0).
  bool BudgetExhausted() const { return engine_->BudgetExhausted(); }

  /// Unified initialization diagnostics of the underlying engine.
  const InitStats& init_stats() const { return engine_->init_stats(); }

  /// Shards serving the stream (1 for a plain engine): the engine always
  /// builds exactly options().num_shards of them.
  std::size_t num_shards() const { return options_.num_shards; }

  /// The validated configuration the resolver was created with.
  const ResolverOptions& options() const { return options_; }

  /// Serves one request — the library's one request path. An invalid
  /// request (ValidateResolveRequest) is rejected with InvalidArgument
  /// before it takes a ticket. Otherwise it takes the next admission
  /// ticket, waits until every earlier ticket has been served, then draws
  /// up to min(budget, max_batch) comparisons off the shared stream —
  /// giving up losslessly at the request's deadline or cancellation.
  /// Blocking; safe from concurrent threads, including concurrently with
  /// Drain(). After Drain() began, requests are rejected with
  /// FailedPrecondition (empty slice, no stream consumed).
  ResolveResult Serve(const ResolveRequest& request);

  /// Graceful drain: stops admitting new requests, then takes the next
  /// ticket and waits for its turn like a request. Every request ticketed
  /// before it is served first (or cuts itself at its deadline); on its
  /// turn it drains the engine — shutting down and joining refill
  /// workers — and every request whose turn comes later is rejected with
  /// FailedPrecondition. Blocking; idempotent; safe to race with
  /// concurrent Serve() calls (each request is either fully served or
  /// cleanly rejected, never half-drawn). The resolver stays queryable
  /// afterwards: Serve() rejects, Next() returns nullopt.
  void Drain();

  /// True once Drain() has begun (new requests are being rejected).
  bool draining() const { return draining_.load(); }

 private:
  Resolver(ResolverOptions options, std::unique_ptr<Engine> engine);

  ResolverOptions options_;
  std::unique_ptr<Engine> engine_;

  /// Session metric sinks, created once at construction when telemetry is
  /// enabled (all nullptr otherwise). Histograms record nanoseconds
  /// except slice_comparisons_ (delivered comparisons per request).
  obs::Histogram* queue_wait_ns_ = nullptr;
  obs::Histogram* service_ns_ = nullptr;
  obs::Histogram* slice_comparisons_ = nullptr;
  obs::Counter* requests_ = nullptr;
  /// Robustness counters: requests cut by deadline / explicit cancel,
  /// requests rejected (invalid, draining or poisoned), requests that
  /// observed an engine error.
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* errors_ = nullptr;

  /// Passes the turn on when a request's or a drain's turn ends.
  struct TurnGuard;

  /// Ticketed FIFO admission over the shared stream, for requests and
  /// drains alike. The ticket is taken atomically on arrival — *before*
  /// the serve mutex — so admission order is arrival order even when the
  /// mutex itself would let a later caller barge past a longer-waiting
  /// one; `cv_` then admits waiters strictly in ticket order.
  std::atomic<std::uint64_t> next_ticket_{0};
  Mutex mutex_;
  CondVar cv_;
  std::uint64_t now_serving_ SPER_GUARDED_BY(mutex_) = 0;

  /// Set by Drain() before it takes its ticket. Only a fast path: a
  /// request that reads it false and then queues behind the drain is
  /// rejected on its turn, because engine_drained_ is set by then.
  std::atomic<bool> draining_{false};
  /// Set on the first drain's turn; the engine is drained exactly once.
  bool engine_drained_ SPER_GUARDED_BY(mutex_) = false;
  /// Set once a request observed the engine's sticky error; later
  /// requests are rejected with FailedPrecondition instead of
  /// re-reporting the Internal status.
  bool poison_reported_ SPER_GUARDED_BY(mutex_) = false;
};

}  // namespace sper

#endif  // SPER_ENGINE_RESOLVER_H_
