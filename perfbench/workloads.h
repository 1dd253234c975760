#ifndef SPER_PERFBENCH_WORKLOADS_H_
#define SPER_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the traced per-layer run. Everything here
// drives the library from outside, through its public API: Resolver,
// QosAdmissionController, net::Server / net::Client, the wire codec,
// BuildTokenWorkflowBlocks and PpsEmitter.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "datagen/dataset.h"
#include "engine/engine.h"
#include "engine/resolver.h"
#include "harness.h"
#include "net/server.h"
#include "obs/registry.h"
#include "serving/qos.h"

namespace perfbench {

/// Where a caller enters the serving stack.
enum class Entry {
  kResolver,  // Resolver::Serve, in process
  kQos,       // QosAdmissionController::Resolve, in process
  kWire,      // net::Client -> loopback net::Server
};

/// Comparisons a caller asks for per request, on every workload. 4096, not
/// 1024: with 1024, serve-wire's per-request handoffs made it follow the
/// host's wake-up latency, and the run medians of its mcmp_s and p90
/// latency moved by up to 2x between runs minutes apart on a 4-vCPU host,
/// against ~1.4x at 4096 (interleaved runs).
inline constexpr std::uint64_t kSliceComparisons = 4096;

/// One closed-loop drive of the stream: how the resolver is built and how
/// its callers pull from it. Callers each send their next request only
/// after the previous one returned; caller k asks with priority k % 3.
struct DriveSpec {
  std::string_view name;
  std::size_t shards = 1;
  std::size_t init_threads = 1;
  std::size_t lookahead = 0;
  Entry entry = Entry::kResolver;
  std::size_t callers = 1;
};

/// drain-s1, drain-s4 and serve-wire, in that order.
const std::vector<DriveSpec>& Workloads();
/// nullptr for an unknown name.
const DriveSpec* FindWorkload(std::string_view name);

/// The benchmark's input size: dbpedia at this scale has 85,000 profiles
/// and 22,500 matches, and every timed phase of every workload lasts
/// seconds.
inline constexpr double kInputScale = 0.5;

/// The benchmark input: the dbpedia generator (Clean-Clean, heterogeneous)
/// at `scale`, seeded by `seed`.
sper::Result<sper::DatasetBundle> MakeInput(std::uint64_t seed, double scale);

/// What one round (build the resolver, then drain it to exhaustion)
/// observed.
struct RoundResult {
  /// Resolver::Create (+ net::Server::Start for kWire).
  double setup_s = 0.0;
  /// First request issued to the last caller seeing exhaustion.
  double drain_s = 0.0;
  std::uint64_t requests = 0;
  /// Requests whose outcome was not kServed, transport errors included.
  std::uint64_t failed = 0;
  std::uint64_t comparisons = 0;
  /// Request issued -> slice in the caller's hands, per request.
  std::vector<double> lat_ms;
  std::array<std::vector<double>, sper::kNumPriorities> class_lat_ms;
  sper::InitStats init;
  /// kWire only.
  sper::net::ServerStats server;
  std::array<sper::serving::ClassStats, sper::kNumPriorities> qos{};
  /// Not OK when the round could not drive the stream to exhaustion.
  sper::Status status;
};

/// Optional instrumentation of a round.
struct RoundHooks {
  /// Library telemetry (resolver, server, QoS) goes here, under
  /// `prefix`; nullptr = off.
  sper::obs::Registry* registry = nullptr;
  std::string prefix;
  /// Benchmark-side spans; nullptr = off.
  Tracer* tracer = nullptr;
  std::uint64_t parent_span = 0;
};

/// Builds a resolver for `spec` and drains it with the spec's callers,
/// folding every served slice into `recorder` in ticket order.
RoundResult RunRound(const DriveSpec& spec, const sper::DatasetBundle& input,
                     StreamRecorder& recorder, const RoundHooks& hooks = {});

/// What a run reports: the result line, and why it is not correct.
struct Report {
  bool correct = false;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// A workload measured with tracing off. `metrics` holds setup_s, mcmp_s,
/// lat_p50_ms, served_ratio, auc_at_1, auc_at_10, recall_at_ec10 and
/// peak_rss_mb.
struct EndToEndReport : Report {
  /// Per round: set-up seconds and drain seconds.
  std::vector<std::pair<double, double>> round_seconds;
  sper::net::StreamDigest digest;
  Quality quality;
};

/// Rounds an end-to-end run makes however short its `seconds`.
inline constexpr std::size_t kMinRounds = 3;

/// Runs rounds of `spec` for about `seconds` (never fewer than
/// kMinRounds), checks every round's stream against the first and against
/// the workload's reference stream, and reports the end-to-end metrics,
/// each the median over rounds of the round's value.
EndToEndReport RunEndToEnd(const DriveSpec& spec,
                           const sper::DatasetBundle& input, double seconds);

/// Measures every per-layer metric (see perfbench/README.md), recording
/// spans and library telemetry into `registry`, plus obs.overhead: the
/// workload's traced drain time over its untraced drain time.
Report RunTraced(const DriveSpec& spec, const sper::DatasetBundle& input,
                 double seconds, sper::obs::Registry& registry);

}  // namespace perfbench

#endif  // SPER_PERFBENCH_WORKLOADS_H_
