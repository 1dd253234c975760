#ifndef SPER_OBS_CLOCK_H_
#define SPER_OBS_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

/// \file clock.h
/// The one monotonic clock of the observability layer. Every timing site
/// in the library — phase timers, span recording, the evaluator's
/// init/emission split, refill-latency histograms — reads time through
/// Stopwatch instead of scattering its own std::chrono boilerplate
/// (tools/lint_determinism.py DET003 bans raw std::chrono clocks outside
/// this header).
///
/// Stopwatch is a *utility*, not instrumentation: it works without a
/// TelemetryScope (diagnostics like InitStats::init_seconds and
/// RunResult timings must keep working with telemetry off).
///
/// ClockSource is the injectable side of the same clock: components whose
/// *decisions* depend on elapsed time (the QoS admission controller's
/// token buckets, queue-wait estimates and doomed-request eviction in
/// src/serving/) read through a ClockSource pointer so tests can
/// substitute a ManualClock and make those decisions deterministic. The
/// default source is the monotonic Stopwatch clock — there is still
/// exactly one real time source in the library.

namespace sper {
namespace obs {

/// Thin wrapper over std::chrono::steady_clock: started on construction,
/// read any number of times.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  Stopwatch() : start_(Clock::now()) {}

  /// The current monotonic instant (for explicit start/end span APIs).
  static TimePoint Now() { return Clock::now(); }

  /// Seconds between two instants.
  static double Seconds(TimePoint from, TimePoint to) {
    return std::chrono::duration<double>(to - from).count();
  }

  /// Whole nanoseconds between two instants (clamped at 0).
  static std::uint64_t Nanos(TimePoint from, TimePoint to) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  }

  /// Instant this stopwatch was started (or last Restart()ed).
  TimePoint start() const { return start_; }

  /// Seconds elapsed since start.
  double ElapsedSeconds() const { return Seconds(start_, Now()); }

  /// Nanoseconds elapsed since start.
  std::uint64_t ElapsedNanos() const { return Nanos(start_, Now()); }

  /// Re-arms the stopwatch at the current instant.
  void Restart() { start_ = Clock::now(); }

 private:
  TimePoint start_;
};

/// Injectable monotonic time source for components whose decisions (not
/// just their diagnostics) depend on elapsed time. NowNanos() is
/// monotonic non-decreasing; the epoch is unspecified — only differences
/// are meaningful.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  virtual std::uint64_t NowNanos() const = 0;
};

/// The real clock: Stopwatch's steady clock, nanoseconds since the first
/// use in the process (via a fixed process-local epoch).
class MonotonicClock final : public ClockSource {
 public:
  std::uint64_t NowNanos() const override {
    return Stopwatch::Nanos(Epoch(), Stopwatch::Now());
  }

  /// The process-wide instance components default to when no clock is
  /// injected.
  static const MonotonicClock* Default() {
    static const MonotonicClock clock;
    return &clock;
  }

 private:
  static Stopwatch::TimePoint Epoch() {
    static const Stopwatch::TimePoint epoch = Stopwatch::Now();
    return epoch;
  }
};

/// A hand-advanced clock for deterministic tests: time moves only when
/// Advance() is called. Reads and advances are atomic, so a test may
/// advance while controller threads read concurrently.
class ManualClock final : public ClockSource {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0) : now_ns_(start_ns) {}

  std::uint64_t NowNanos() const override {
    return now_ns_.load(std::memory_order_relaxed);
  }

  void AdvanceNanos(std::uint64_t ns) {
    now_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AdvanceMillis(std::uint64_t ms) { AdvanceNanos(ms * 1000000ull); }

 private:
  std::atomic<std::uint64_t> now_ns_;
};

}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_CLOCK_H_
