#include "engine/resolver.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "engine/progressive_engine.h"
#include "engine/sharded_engine.h"
#include "obs/fault_injection.h"

namespace sper {

std::string_view ToString(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

std::optional<Priority> ParsePriority(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "interactive") return Priority::kInteractive;
  if (lower == "batch") return Priority::kBatch;
  if (lower == "best_effort" || lower == "besteffort" ||
      lower == "best-effort") {
    return Priority::kBestEffort;
  }
  return std::nullopt;
}

std::string_view ToString(ResolveOutcome outcome) {
  switch (outcome) {
    case ResolveOutcome::kServed:
      return "served";
    case ResolveOutcome::kDeadlineExpired:
      return "deadline_expired";
    case ResolveOutcome::kCancelled:
      return "cancelled";
    case ResolveOutcome::kShed:
      return "shed";
    case ResolveOutcome::kEvicted:
      return "evicted";
    case ResolveOutcome::kRejected:
      return "rejected";
    case ResolveOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

Status ResolverOptions::Validate() const {
  if (num_threads == 0 || num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [1, " + std::to_string(kMaxThreads) +
        "], got " + std::to_string(num_threads));
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(num_shards));
  }
  if (lookahead > kMaxLookahead) {
    return Status::InvalidArgument(
        "lookahead must be <= " + std::to_string(kMaxLookahead) + ", got " +
        std::to_string(lookahead));
  }
  if (lookahead > 0 && num_shards == 1) {
    return Status::InvalidArgument(
        "lookahead must be 0 with num_shards 1 (one shard pipelines its "
        "refills on num_threads workers instead), got " +
        std::to_string(lookahead));
  }
  if (method == MethodId::kPsn && schema_key == nullptr) {
    return Status::InvalidArgument(
        "method PSN requires a schema blocking key "
        "(ResolverOptions::schema_key)");
  }
  if (method == MethodId::kPps && pps_kmax == 0) {
    return Status::InvalidArgument("pps_kmax must be > 0 for method PPS");
  }
  const auto check_ratio = [](const char* name, double ratio) {
    if (std::isfinite(ratio) && ratio >= 0.0) return Status::Ok();
    return Status::InvalidArgument(std::string(name) +
                                   " must be finite and >= 0, got " +
                                   std::to_string(ratio));
  };
  SPER_RETURN_IF_ERROR(
      check_ratio("workflow.filtering.ratio", workflow.filtering.ratio));
  SPER_RETURN_IF_ERROR(check_ratio("workflow.purging.max_size_ratio",
                                   workflow.purging.max_size_ratio));
  return Status::Ok();
}

Status ValidateResolveRequest(const ResolveRequest& request) {
  if (request.max_batch > ResolveRequest::kMaxBatch) {
    return Status::InvalidArgument(
        "max_batch must be <= " +
        std::to_string(ResolveRequest::kMaxBatch) + ", got " +
        std::to_string(request.max_batch));
  }
  if (request.deadline_ms > ResolveRequest::kMaxDeadlineMs) {
    return Status::InvalidArgument(
        "deadline_ms must be <= " +
        std::to_string(ResolveRequest::kMaxDeadlineMs) + ", got " +
        std::to_string(request.deadline_ms));
  }
  if (static_cast<std::size_t>(request.priority) >= kNumPriorities) {
    return Status::InvalidArgument(
        "priority must be a known class, got " +
        std::to_string(static_cast<unsigned>(request.priority)));
  }
  return Status::Ok();
}

Resolver::Resolver(ResolverOptions options, std::unique_ptr<Engine> engine)
    : options_(std::move(options)), engine_(std::move(engine)) {
  const obs::TelemetryScope& scope = options_.telemetry;
  if (scope.enabled()) {
    queue_wait_ns_ = scope.histogram("session.queue_wait_ns");
    service_ns_ = scope.histogram("session.service_ns");
    slice_comparisons_ = scope.histogram("session.slice_comparisons");
    requests_ = scope.counter("session.requests");
    deadline_exceeded_ = scope.counter("session.deadline_exceeded");
    cancelled_ = scope.counter("session.cancelled");
    rejected_ = scope.counter("session.rejected");
    errors_ = scope.counter("session.errors");
  }
}

Result<std::unique_ptr<Resolver>> Resolver::Create(const ProfileStore& store,
                                                   ResolverOptions options) {
  SPER_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<Engine> engine;
  if (options.num_shards > 1) {
    engine = std::make_unique<ShardedEngine>(store, options);
  } else {
    engine = std::make_unique<ProgressiveEngine>(store, options);
  }
  return std::unique_ptr<Resolver>(
      new Resolver(std::move(options), std::move(engine)));
}

/// Passes the turn to the next ticket at scope exit. Declared after the
/// turn's MutexLock, so it runs while mutex_ is still held; and it keeps
/// the admission queue live even if the turn throws (e.g. bad_alloc
/// growing a huge slice) instead of deadlocking every later ticket.
struct Resolver::TurnGuard {
  Resolver* resolver;
  // The analysis cannot see the caller's lock from a destructor, hence
  // the opt-out; now_serving_ stays mutex_-guarded.
  ~TurnGuard() SPER_NO_THREAD_SAFETY_ANALYSIS {
    ++resolver->now_serving_;
    resolver->cv_.NotifyAll();
  }
};

ResolveResult Resolver::Serve(const ResolveRequest& request) {
  const obs::Stopwatch arrival;
  ResolveResult result;

  // An invalid request is rejected before it takes a ticket: its
  // deadline_ms could overflow the deadline clock, its priority index the
  // QoS lanes.
  if (Status valid = ValidateResolveRequest(request); !valid.ok()) {
    result.outcome = ResolveOutcome::kRejected;
    result.status = std::move(valid);
    if (rejected_ != nullptr) rejected_->Add();
    return result;
  }

  // Draining resolvers reject before taking a ticket (no queue slot, no
  // stream consumption). A request that loses the race — ticket taken
  // just after the drain's — is rejected on its turn below.
  if (draining()) {
    result.outcome = ResolveOutcome::kRejected;
    result.status = Status::FailedPrecondition("resolver is draining");
    if (rejected_ != nullptr) rejected_->Add();
    return result;
  }

  // The request's deadline starts at arrival: queue wait counts, because
  // the paper's interactive consumer cares about total latency. The
  // derived token also fires if the caller's own token does.
  CancelToken token = request.cancel;
  if (request.deadline_ms > 0) {
    token = token.WithDeadline(std::chrono::milliseconds(request.deadline_ms));
  }

  // Ticketed FIFO admission: the ticket is taken atomically on arrival,
  // before the serve mutex, and the draw waits until every earlier ticket
  // has been served — a fair ticket lock, so a request that arrives later
  // (larger ticket) can never barge past an earlier one even if the OS
  // hands it the mutex first.
  result.ticket = next_ticket_.fetch_add(1);
  MutexLock lock(mutex_);
  while (now_serving_ != result.ticket) cv_.Wait(lock);
  const obs::Stopwatch::TimePoint admitted = obs::Stopwatch::Now();
  if (queue_wait_ns_ != nullptr) {
    queue_wait_ns_->Record(obs::Stopwatch::Nanos(arrival.start(), admitted));
  }
  TurnGuard guard{this};

  if (engine_drained_) {
    // A drain's turn came before this one: serve an empty rejected slice.
    result.outcome = ResolveOutcome::kRejected;
    result.status = Status::FailedPrecondition("resolver is draining");
    if (rejected_ != nullptr) rejected_->Add();
    return result;
  }
  if (poison_reported_) {
    // The engine's failure was already surfaced to an earlier request;
    // later ones get the stable "this resolver is dead" answer.
    result.outcome = ResolveOutcome::kRejected;
    result.status = Status::FailedPrecondition(
        "resolver engine poisoned: " + engine_->status().message());
    if (rejected_ != nullptr) rejected_->Add();
    return result;
  }
  SPER_FAULT_HIT("session.admit");

  std::uint64_t want = request.budget;
  if (request.max_batch != 0) {
    want = std::min<std::uint64_t>(want, request.max_batch);
  }
  // Cap the reservation: `want` is caller-controlled and may be "all of
  // it"; the slice grows normally past the initial reservation.
  result.comparisons.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(want, 65536)));

  const auto record_cut = [&] {
    if (token.reason() == CancelReason::kDeadline) {
      result.outcome = ResolveOutcome::kDeadlineExpired;
      if (deadline_exceeded_ != nullptr) deadline_exceeded_->Add();
    } else {
      result.outcome = ResolveOutcome::kCancelled;
      if (cancelled_ != nullptr) cancelled_->Add();
    }
  };

  while (result.comparisons.size() < want) {
    // The engine checks the token only where it refills or waits, and a
    // warm pipeline hands out ready groups without doing either. One bulk
    // pull copies at most one refill batch or slot group, so checking
    // before each bounds how far past its deadline a request can run.
    if (token.valid() && token.cancelled()) {
      record_cut();
      break;
    }
    const std::uint64_t left = want - result.comparisons.size();
    const PullStatus pulled = engine_->PullMany(
        result.comparisons,
        static_cast<std::size_t>(std::min<std::uint64_t>(left, SIZE_MAX)),
        token);
    if (pulled == PullStatus::kOk) continue;
    if (pulled == PullStatus::kExhausted) {
      // Exhaustion is either the global budget running out mid-slice or
      // the method running dry; tell the caller which.
      if (engine_->BudgetExhausted()) {
        result.budget_exhausted = true;
      } else {
        result.stream_exhausted = true;
      }
    } else if (pulled == PullStatus::kCancelled) {
      record_cut();
    } else {  // kError: the first observer reports the contained failure
      result.outcome = ResolveOutcome::kFailed;
      result.status = engine_->status();
      poison_reported_ = true;
      if (errors_ != nullptr) errors_->Add();
    }
    break;
  }
  // A request admitted after the global budget is spent (including a
  // zero-budget probe) still learns so without drawing.
  if (engine_->BudgetExhausted()) result.budget_exhausted = true;

  if (requests_ != nullptr) {
    const obs::Stopwatch::TimePoint done = obs::Stopwatch::Now();
    requests_->Add();
    service_ns_->Record(obs::Stopwatch::Nanos(admitted, done));
    slice_comparisons_->Record(result.comparisons.size());
    options_.telemetry.RecordSpan(
        "session.resolve", admitted, done,
        "{\"ticket\": " + std::to_string(result.ticket) +
            ", \"comparisons\": " +
            std::to_string(result.comparisons.size()) + "}");
  }
  return result;  // the guard admits the next ticket
}

void Resolver::Drain() {
  const obs::Stopwatch watch;
  draining_.store(true);
  // The drain queues like a request: every ticket before its own is
  // served first (or cuts itself at its own deadline), and every ticket
  // after it finds the engine drained. A second concurrent Drain() gets a
  // later ticket, so it returns only after the first one finished.
  const std::uint64_t ticket = next_ticket_.fetch_add(1);
  MutexLock lock(mutex_);
  while (now_serving_ != ticket) cv_.Wait(lock);
  TurnGuard guard{this};
  if (!engine_drained_) {
    engine_->Drain();  // shuts down + joins refill workers
    engine_drained_ = true;
    options_.telemetry.RecordSpan("session.drain", watch.start(),
                                  obs::Stopwatch::Now());
    if (obs::Counter* drains = options_.telemetry.counter("session.drains");
        drains != nullptr) {
      drains->Add();
    }
  }
}

}  // namespace sper
