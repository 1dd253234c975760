#include "serving/qos.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/macros.h"
#include "obs/fault_injection.h"

namespace sper {
namespace serving {

Status QosOptions::Validate() const {
  bool any_weight = false;
  for (std::uint32_t w : weights) any_weight |= (w != 0);
  if (!any_weight) {
    return Status::InvalidArgument(
        "at least one QoS priority weight must be positive");
  }
  if (client_rate < 0.0) {
    return Status::InvalidArgument("client_rate must be >= 0");
  }
  if (client_rate > 0.0 && client_burst < 1.0) {
    return Status::InvalidArgument(
        "client_burst must be >= 1 when rate limiting is enabled");
  }
  if (retry_after_base_ms == 0) {
    return Status::InvalidArgument("retry_after_base_ms must be > 0");
  }
  if (retry_after_cap_ms < retry_after_base_ms) {
    return Status::InvalidArgument(
        "retry_after_cap_ms must be >= retry_after_base_ms");
  }
  return Status::Ok();
}

QosAdmissionController::QosAdmissionController(Resolver& resolver,
                                               QosOptions options)
    : resolver_(resolver),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : obs::MonotonicClock::Default()),
      wrr_(options_.weights) {
  SPER_CHECK(options_.Validate().ok());
  const obs::TelemetryScope& scope = options_.telemetry;
  if (scope.enabled()) {
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
      const std::string cls(ToString(static_cast<Priority>(i)));
      admitted_metric_[i] = scope.counter("qos." + cls + ".admitted");
      sheds_metric_[i] = scope.counter("qos." + cls + ".sheds");
      evictions_metric_[i] = scope.counter("qos." + cls + ".evictions");
      queue_wait_metric_[i] = scope.histogram("qos." + cls + ".queue_wait_ns");
    }
    queue_depth_metric_ = scope.gauge("qos.queue_depth");
    rate_limited_metric_ = scope.counter("qos.rate_limited");
  }
}

std::uint64_t QosAdmissionController::EstimatedWaitNs(
    std::size_t ahead) const {
  return static_cast<std::uint64_t>(ahead) * ewma_service_ns_;
}

std::uint64_t QosAdmissionController::BackoffMs(
    std::uint32_t consecutive_sheds) const {
  // Shift capped well under 64 so the hint cannot overflow before the cap
  // is applied.
  const std::uint32_t shift =
      consecutive_sheds > 0
          ? std::min<std::uint32_t>(consecutive_sheds - 1, 20)
          : 0;
  return std::min(options_.retry_after_base_ms << shift,
                  options_.retry_after_cap_ms);
}

ResolveResult QosAdmissionController::ShedLocked(ClientId client,
                                                 Priority priority,
                                                 std::string reason,
                                                 std::uint64_t bucket_wait_ms) {
  // The caller created the client entry before deciding to shed.
  ClientState& state = clients_.find(client)->second;
  const std::uint32_t consecutive = ++state.consecutive_sheds;

  ResolveResult result;
  result.outcome = ResolveOutcome::kShed;
  result.retry_after_ms = std::max(bucket_wait_ms, BackoffMs(consecutive));
  result.status = Status::ResourceExhausted(std::move(reason));

  const auto lane = static_cast<std::size_t>(priority);
  ++stats_[lane].sheds;
  if (sheds_metric_[lane] != nullptr) sheds_metric_[lane]->Add();
  return result;
}

void QosAdmissionController::DispatchNextLocked() {
  if (paused_ || in_service_) return;
  const std::uint64_t now = clock_->NowNanos();
  for (;;) {
    std::array<bool, kNumPriorities> eligible;
    bool any = false;
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
      eligible[i] = !lanes_[i].empty();
      any = any || eligible[i];
    }
    if (!any) return;

    const std::size_t lane = wrr_.Pick(eligible);
    Waiter* head = lanes_[lane].front();
    lanes_[lane].pop_front();
    --queued_total_;
    stats_[lane].queued = lanes_[lane].size();
    if (queue_depth_metric_ != nullptr) {
      queue_depth_metric_->Set(static_cast<double>(queued_total_));
    }

    // Doomed at its own dispatch instant: the deadline passed while the
    // request was queued, so serving it would spend a resolver ticket on
    // a guaranteed-empty slice. Fast-fail and give the lane's turn to the
    // next pick instead. (The WRR balance was already charged — an
    // evicted head still counts as its lane's turn.)
    if (options_.shed_enabled && options_.evict_doomed &&
        head->deadline_ns != 0 && head->deadline_ns <= now) {
      head->evicted = true;
      ++stats_[lane].evictions;
      if (evictions_metric_[lane] != nullptr) evictions_metric_[lane]->Add();
      cv_.NotifyAll();
      continue;
    }

    head->selected = true;
    in_service_ = true;
    ++stats_[lane].admitted;
    if (admitted_metric_[lane] != nullptr) admitted_metric_[lane]->Add();
    if (queue_wait_metric_[lane] != nullptr) {
      queue_wait_metric_[lane]->Record(now - head->enqueue_ns);
    }
    cv_.NotifyAll();
    return;
  }
}

void QosAdmissionController::ForgetIdleClientsLocked(std::uint64_t now) {
  std::erase_if(clients_, [now](const auto& entry) {
    const ClientState& state = entry.second;
    return state.consecutive_sheds == 0 && state.bucket.FullAt(now);
  });
  if (clients_.size() * 2 >= client_sweep_at_) client_sweep_at_ *= 2;
}

ResolveResult QosAdmissionController::Resolve(const ResolveRequest& request) {
  // Validate before anything indexes by priority or multiplies the
  // deadline: an invalid request never touches a client entry or a lane.
  if (Status valid = ValidateResolveRequest(request); !valid.ok()) {
    ResolveResult result;
    result.outcome = ResolveOutcome::kRejected;
    result.status = std::move(valid);
    return result;
  }
  SPER_FAULT_HIT("qos.admit");
  const auto lane = static_cast<std::size_t>(request.priority);
  Waiter waiter;
  ResolveResult shed_result;
  bool shed = false;
  bool evicted_on_arrival = false;

  {
    MutexLock lock(mutex_);
    const std::uint64_t now = clock_->NowNanos();

    if (clients_.size() >= client_sweep_at_) ForgetIdleClientsLocked(now);
    ClientState& client =
        clients_
            .try_emplace(request.client_id,
                         ClientState{TokenBucket(options_.client_rate,
                                                 options_.client_burst, now),
                                     0})
            .first->second;

    // 1. Per-client rate limit.
    if (!client.bucket.TryAcquire(1.0, now)) {
      const std::uint64_t bucket_ms = client.bucket.RetryAfterMs(1.0, now);
      if (rate_limited_metric_ != nullptr) rate_limited_metric_->Add();
      shed_result = ShedLocked(request.client_id, request.priority,
                               "client rate limit exceeded", bucket_ms);
      shed = true;
    }

    // 2. Queue-bound load shedding.
    if (!shed && options_.shed_enabled) {
      const std::size_t ahead = queued_total_ + (in_service_ ? 1 : 0);
      if (options_.max_queue_depth > 0 &&
          queued_total_ >= options_.max_queue_depth) {
        shed_result =
            ShedLocked(request.client_id, request.priority,
                       "admission queue full (depth " +
                           std::to_string(queued_total_) + ")",
                       0);
        shed = true;
      } else if (options_.max_queue_wait_ms > 0 &&
                 EstimatedWaitNs(ahead) >
                     options_.max_queue_wait_ms * 1000000ull) {
        shed_result = ShedLocked(request.client_id, request.priority,
                                 "estimated queue wait exceeds bound", 0);
        shed = true;
      }
    }

    if (!shed) {
      waiter.enqueue_ns = now;
      waiter.deadline_ns = request.deadline_ms > 0
                               ? now + request.deadline_ms * 1000000ull
                               : 0;

      // 4. Doomed on arrival: the estimated service start already lies
      // past the request's deadline — fail fast instead of queueing work
      // that cannot be served in time.
      if (options_.shed_enabled && options_.evict_doomed &&
          waiter.deadline_ns != 0) {
        const std::size_t ahead = queued_total_ + (in_service_ ? 1 : 0);
        if (now + EstimatedWaitNs(ahead) > waiter.deadline_ns) {
          evicted_on_arrival = true;
          ++stats_[lane].evictions;
          if (evictions_metric_[lane] != nullptr) {
            evictions_metric_[lane]->Add();
          }
        }
      }

      if (!evicted_on_arrival) {
        client.consecutive_sheds = 0;
        lanes_[lane].push_back(&waiter);
        ++queued_total_;
        stats_[lane].queued = lanes_[lane].size();
        if (queue_depth_metric_ != nullptr) {
          queue_depth_metric_->Set(static_cast<double>(queued_total_));
        }
        // 3. WRR dispatch (possibly selecting this very waiter).
        DispatchNextLocked();
        while (!waiter.selected && !waiter.evicted) cv_.Wait(lock);
      }
    }
  }

  if (shed) {
    SPER_FAULT_HIT("qos.shed");
    return shed_result;
  }
  if (evicted_on_arrival || waiter.evicted) {
    SPER_FAULT_HIT("qos.evict");
    ResolveResult result;
    result.outcome = ResolveOutcome::kEvicted;
    return result;
  }

  // Selected: this thread owns the resolver until its serve completes.
  // The resolver measures deadline_ms from ITS arrival, but this request
  // has already been waiting — pass only the remaining budget through.
  ResolveRequest dispatched = request;
  const std::uint64_t start_ns = clock_->NowNanos();
  if (request.deadline_ms > 0) {
    const std::uint64_t waited_ms =
        (start_ns - waiter.enqueue_ns) / 1000000ull;
    if (waited_ms < request.deadline_ms) {
      dispatched.deadline_ms = request.deadline_ms - waited_ms;
    } else {
      // Expired in the lane (reachable only with eviction off): dispatch
      // under an already-fired deadline token so the resolver cuts it
      // deterministically — admitted, empty slice, stream intact.
      dispatched.deadline_ms = 0;
      dispatched.cancel =
          request.cancel.WithDeadline(std::chrono::nanoseconds(0));
    }
  }
  ResolveResult result = resolver_.Serve(dispatched);
  const std::uint64_t service_ns = clock_->NowNanos() - start_ns;

  {
    MutexLock lock(mutex_);
    ewma_service_ns_ = ewma_service_ns_ == 0
                           ? service_ns
                           : (3 * ewma_service_ns_ + service_ns) / 4;
    in_service_ = false;
    DispatchNextLocked();
  }
  return result;
}

ClassStats QosAdmissionController::stats(Priority priority) const {
  MutexLock lock(mutex_);
  return stats_[static_cast<std::size_t>(priority)];
}

std::size_t QosAdmissionController::queue_depth() const {
  MutexLock lock(mutex_);
  return queued_total_;
}

std::size_t QosAdmissionController::tracked_clients() const {
  MutexLock lock(mutex_);
  return clients_.size();
}

void QosAdmissionController::PrimeServiceEstimate(std::uint64_t service_ns) {
  MutexLock lock(mutex_);
  ewma_service_ns_ = service_ns;
}

void QosAdmissionController::SetDispatchPaused(bool paused) {
  MutexLock lock(mutex_);
  paused_ = paused;
  if (!paused_) DispatchNextLocked();
}

}  // namespace serving
}  // namespace sper
