#ifndef SPER_OBS_TELEMETRY_H_
#define SPER_OBS_TELEMETRY_H_

#include <string>
#include <string_view>
#include <utility>

#include "obs/clock.h"
#include "obs/registry.h"

/// \file telemetry.h
/// The instrumentation seam that library code holds: a TelemetryScope is
/// a (Registry*, name-prefix) pair that flows through options structs
/// (ResolverOptions -> each shard's copy with a "shard<S>." sub-scope ->
/// workflow / emitter options). Code instruments unconditionally against the scope;
/// the scope decides whether anything happens:
///
///   - runtime off-mode: a default-constructed scope has no registry, so
///     counter()/gauge()/histogram() return nullptr and RecordSpan is a
///     no-op — instrumented sites cost one pointer test;
///   - compile-time off-mode: with SPER_NO_TELEMETRY defined the scope
///     collapses to an empty constexpr stub, so the registry plumbing
///     compiles out entirely. The primitives (metrics.h, registry.h) and
///     Stopwatch stay available either way.
///
/// ScopedPhase is the RAII phase timer built on top: it times a named
/// phase, records gauge "phase.<name>_seconds" plus a span into the
/// scope, and always fills an optional double* out-param — so diagnostics
/// like InitStats keep their numbers even with telemetry compiled out.

namespace sper {
namespace obs {

#ifndef SPER_NO_TELEMETRY

/// A handle into a Registry with a hierarchical name prefix
/// ("shard3." etc). Copyable and cheap; disabled when default-constructed
/// (no registry).
class TelemetryScope {
 public:
  TelemetryScope() = default;
  explicit TelemetryScope(Registry* registry, std::string prefix = {})
      : registry_(registry), prefix_(std::move(prefix)) {}

  bool enabled() const { return registry_ != nullptr; }
  Registry* registry() const { return registry_; }
  const std::string& prefix() const { return prefix_; }

  /// A child scope whose metric names gain "<name>." on top of this
  /// scope's prefix (e.g. Sub("shard0") -> "shard0.phase...").
  TelemetryScope Sub(std::string_view name) const {
    if (!enabled()) return {};
    return TelemetryScope(registry_, prefix_ + std::string(name) + ".");
  }

  /// Get-or-create a metric named prefix + name; nullptr when disabled.
  Counter* counter(std::string_view name) const {
    return enabled() ? registry_->counter(FullName(name)) : nullptr;
  }
  Gauge* gauge(std::string_view name) const {
    return enabled() ? registry_->gauge(FullName(name)) : nullptr;
  }
  Histogram* histogram(std::string_view name) const {
    return enabled() ? registry_->histogram(FullName(name)) : nullptr;
  }

  /// Records a span named prefix + name; no-op when disabled.
  void RecordSpan(std::string_view name, Stopwatch::TimePoint start,
                  Stopwatch::TimePoint end, std::string args_json = {}) const {
    if (enabled()) {
      registry_->RecordSpan(FullName(name), start, end, std::move(args_json));
    }
  }

 private:
  std::string FullName(std::string_view name) const {
    std::string full = prefix_;
    full += name;
    return full;
  }

  Registry* registry_ = nullptr;
  std::string prefix_;
};

/// RAII timer for one named phase: on destruction (or Stop()) records
/// gauge "phase.<name>_seconds" and a span "<name>" into the scope, and
/// fills *out_seconds when given. The out-param is filled even when the
/// scope is disabled — callers use it to populate always-on diagnostics
/// such as InitStats.
class ScopedPhase {
 public:
  ScopedPhase(const TelemetryScope& scope, std::string_view name,
              double* out_seconds = nullptr)
      : scope_(scope), name_(name), out_seconds_(out_seconds) {}

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() { Stop(); }

  /// Ends the phase early (idempotent).
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    const Stopwatch::TimePoint end = Stopwatch::Now();
    const double seconds = Stopwatch::Seconds(watch_.start(), end);
    if (out_seconds_ != nullptr) *out_seconds_ = seconds;
    if (scope_.enabled()) {
      std::string gauge_name = "phase.";
      gauge_name += name_;
      gauge_name += "_seconds";
      scope_.gauge(gauge_name)->Add(seconds);
      scope_.RecordSpan(name_, watch_.start(), end);
    }
  }

 private:
  const TelemetryScope& scope_;
  std::string name_;
  double* out_seconds_;
  Stopwatch watch_;
  bool stopped_ = false;
};

#else  // SPER_NO_TELEMETRY

/// Compile-time off-mode: an empty scope whose accessors constant-fold
/// away. Library code instruments against this interface unchanged.
class TelemetryScope {
 public:
  constexpr TelemetryScope() = default;
  explicit TelemetryScope(Registry*, std::string = {}) {}

  constexpr bool enabled() const { return false; }
  constexpr Registry* registry() const { return nullptr; }
  TelemetryScope Sub(std::string_view) const { return {}; }
  constexpr Counter* counter(std::string_view) const { return nullptr; }
  constexpr Gauge* gauge(std::string_view) const { return nullptr; }
  constexpr Histogram* histogram(std::string_view) const { return nullptr; }
  void RecordSpan(std::string_view, Stopwatch::TimePoint,
                  Stopwatch::TimePoint, std::string = {}) const {}
};

/// Off-mode phase timer: still times (so *out_seconds stays correct for
/// always-on diagnostics) but records nothing.
class ScopedPhase {
 public:
  ScopedPhase(const TelemetryScope&, std::string_view,
              double* out_seconds = nullptr)
      : out_seconds_(out_seconds) {}

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() { Stop(); }

  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    if (out_seconds_ != nullptr) *out_seconds_ = watch_.ElapsedSeconds();
  }

 private:
  double* out_seconds_;
  Stopwatch watch_;
  bool stopped_ = false;
};

#endif  // SPER_NO_TELEMETRY

}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_TELEMETRY_H_
