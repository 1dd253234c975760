#ifndef SPER_PERFBENCH_HARNESS_H_
#define SPER_PERFBENCH_HARNESS_H_

// Measurement plumbing of the end-to-end benchmark, independent of any
// workload: the ticket-ordered stream recorder behind every output check,
// the quality replay through ProgressiveEvaluator, span recording for the
// traced run, sample statistics, provenance and the result line.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/ground_truth.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"

namespace perfbench {

using sper::Comparison;

/// Folds served slices into one stream digest in ticket order. Slices may
/// arrive out of order from concurrent clients; a slice that arrives early
/// waits in a reorder window of at most `window` slices, and a caller
/// whose early slice finds the window full blocks until the missing
/// ticket arrives. Memory therefore stays bounded by the client count,
/// not the stream length. Only the first `head_limit` comparisons are
/// kept (the quality metrics need no more). Thread-safe.
class StreamRecorder {
 public:
  StreamRecorder(std::uint64_t head_limit, std::size_t window);

  /// Adds the slice served under `ticket`. Returns false (and poisons the
  /// recorder) on a repeated ticket, or when the window stays full for
  /// longer than any served ticket can take to arrive (a lost ticket).
  bool Add(std::uint64_t ticket, std::vector<Comparison> slice);

  /// True iff nothing failed and no ticket gap is left pending.
  bool Complete() const;

  /// Why the recorder is not Complete() ("" when it is).
  std::string error() const;

  sper::net::StreamDigest digest() const;
  std::vector<Comparison> head() const;

 private:
  void FoldLocked(const std::vector<Comparison>& slice)
      SPER_REQUIRES(mutex_);

  const std::uint64_t head_limit_;
  const std::size_t window_;
  mutable sper::Mutex mutex_;
  sper::CondVar advanced_;
  sper::net::StreamDigest digest_ SPER_GUARDED_BY(mutex_);
  std::vector<Comparison> head_ SPER_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ SPER_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, std::vector<Comparison>> pending_
      SPER_GUARDED_BY(mutex_);
  std::string error_ SPER_GUARDED_BY(mutex_);
};

/// Same pair and the same weight bits (NaN payloads and signed zeros
/// included).
bool BitIdentical(const Comparison& a, const Comparison& b);

/// OK iff `candidate` recorded the bit-identical stream `reference` did:
/// same digest, same length, same head. Otherwise an Internal status that
/// says where they differ.
sper::Status CheckSameStream(const StreamRecorder& reference,
                             const StreamRecorder& candidate);

/// Comparisons the quality metrics read: 10 * |D_P|, the ec* = 10 point.
std::uint64_t QualityHeadLength(const sper::GroundTruth& truth);

/// The paper's quality of a stream prefix (Sec. 7): AUC* at ec* 1 and 10
/// and recall after 10 * |D_P| comparisons.
struct Quality {
  double auc_at_1 = 0.0;
  double auc_at_10 = 0.0;
  double recall_at_ec10 = 0.0;
};

/// Replays `head` (the first QualityHeadLength(truth) comparisons of a
/// stream, or the whole stream when it is shorter) through
/// sper::ProgressiveEvaluator, so the benchmark has no AUC* formula of
/// its own.
Quality MeasureQuality(const sper::GroundTruth& truth,
                       const std::vector<Comparison>& head);

/// Nearest-rank quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Process peak resident set size in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Records benchmark-side spans into an obs::Registry: name, start, end
/// and, in args_json, the span's id, its parent's id (0 = root) and the
/// request number (0 = not a request). A tracer without a registry is off
/// and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(sper::obs::Registry* registry = nullptr)
      : registry_(registry) {}

  bool enabled() const { return registry_ != nullptr; }

  /// A fresh span id (dense from 1; 0 when off). Thread-safe.
  std::uint64_t NewId() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  void Record(std::string_view name, sper::obs::Stopwatch::TimePoint start,
              sper::obs::Stopwatch::TimePoint end, std::uint64_t id,
              std::uint64_t parent, std::uint64_t request = 0) const;

 private:
  sper::obs::Registry* registry_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// The machine's cumulative CPU time from /proc/stat, in clock ticks:
/// every state, and the part a hypervisor gave to other guests (steal).
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Zeros when /proc/stat cannot be read.
HostCpu ReadHostCpu();

/// Where a number came from: printed with every result.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  double scale = 0.0;
  std::string dataset;
  std::string revision;
  bool trace = false;
  /// Share of the machine's CPU time stolen by the hypervisor while the
  /// workload ran; -1 when unknown. Wall-clock metrics slow down with it.
  double host_steal_share = -1.0;
};

/// {"provenance": {...}} on one line, adding hardware threads, build type
/// and compiler of this binary.
std::string ProvenanceJson(const Provenance& provenance);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}} with every digit of
/// each value.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // SPER_PERFBENCH_HARNESS_H_
