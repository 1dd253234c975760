#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "eval/evaluator.h"
#include "progressive/emitter.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

/// Quotes and escapes a string for a JSON document.
std::string Quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

/// A double with every significant digit (round-trips exactly).
std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Emits a recorded stream prefix as a ProgressiveEmitter, so a stream the
/// benchmark already consumed can be scored by ProgressiveEvaluator.
class ReplayEmitter : public sper::ProgressiveEmitter {
 public:
  explicit ReplayEmitter(const std::vector<Comparison>& stream)
      : stream_(stream) {}

  std::optional<Comparison> Next() override {
    if (next_ == stream_.size()) return std::nullopt;
    return stream_[next_++];
  }

  std::string_view name() const override { return "replay"; }

 private:
  const std::vector<Comparison>& stream_;
  std::size_t next_ = 0;
};

/// How long an early slice waits for room in a full reorder window before
/// the missing ticket counts as lost.
constexpr std::chrono::seconds kLostTicket(30);

}  // namespace

StreamRecorder::StreamRecorder(std::uint64_t head_limit, std::size_t window)
    : head_limit_(head_limit), window_(window) {}

bool StreamRecorder::Add(std::uint64_t ticket, std::vector<Comparison> slice) {
  sper::MutexLock lock(mutex_);
  if (!error_.empty()) return false;
  if (ticket < next_ticket_ || pending_.count(ticket) > 0) {
    error_ = "ticket " + std::to_string(ticket) + " served twice";
    return false;
  }
  const auto give_up = std::chrono::steady_clock::now() + kLostTicket;
  while (ticket > next_ticket_ && pending_.size() >= window_ &&
         error_.empty()) {
    if (advanced_.WaitUntil(lock, give_up) == std::cv_status::timeout) {
      error_ = "reorder window of " + std::to_string(window_) +
               " slices full; ticket " + std::to_string(next_ticket_) +
               " never arrived";
      advanced_.NotifyAll();  // the other waiters give up too
    }
  }
  if (!error_.empty()) return false;
  if (ticket > next_ticket_) {
    pending_.emplace(ticket, std::move(slice));
    return true;
  }
  FoldLocked(slice);
  ++next_ticket_;
  for (auto it = pending_.find(next_ticket_); it != pending_.end();
       it = pending_.find(next_ticket_)) {
    FoldLocked(it->second);
    pending_.erase(it);
    ++next_ticket_;
  }
  advanced_.NotifyAll();
  return true;
}

void StreamRecorder::FoldLocked(const std::vector<Comparison>& slice) {
  for (const Comparison& c : slice) {
    if (digest_.count < head_limit_) head_.push_back(c);
    digest_.Fold(c);
  }
}

bool StreamRecorder::Complete() const { return error().empty(); }

std::string StreamRecorder::error() const {
  sper::MutexLock lock(mutex_);
  if (!error_.empty()) return error_;
  if (!pending_.empty()) {
    return "ticket " + std::to_string(next_ticket_) + " never arrived";
  }
  return "";
}

sper::net::StreamDigest StreamRecorder::digest() const {
  sper::MutexLock lock(mutex_);
  return digest_;
}

std::vector<Comparison> StreamRecorder::head() const {
  sper::MutexLock lock(mutex_);
  return head_;
}

bool BitIdentical(const Comparison& a, const Comparison& b) {
  return a.i == b.i && a.j == b.j &&
         std::memcmp(&a.weight, &b.weight, sizeof(a.weight)) == 0;
}

sper::Status CheckSameStream(const StreamRecorder& reference,
                             const StreamRecorder& candidate) {
  if (!reference.Complete()) {
    return sper::Status::Internal("reference stream: " + reference.error());
  }
  if (!candidate.Complete()) {
    return sper::Status::Internal("stream: " + candidate.error());
  }
  const sper::net::StreamDigest want = reference.digest();
  const sper::net::StreamDigest got = candidate.digest();
  if (want.count != got.count) {
    return sper::Status::Internal(
        "stream length " + std::to_string(got.count) + " != reference " +
        std::to_string(want.count));
  }
  const std::vector<Comparison> want_head = reference.head();
  const std::vector<Comparison> got_head = candidate.head();
  const std::size_t n = std::min(want_head.size(), got_head.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (!BitIdentical(want_head[k], got_head[k])) {
      return sper::Status::Internal("comparison " + std::to_string(k) +
                                    " differs from the reference");
    }
  }
  if (want.value != got.value || want_head.size() != got_head.size()) {
    return sper::Status::Internal("stream digest differs from the reference");
  }
  return sper::Status::Ok();
}

std::uint64_t QualityHeadLength(const sper::GroundTruth& truth) {
  return 10 * static_cast<std::uint64_t>(truth.num_matches());
}

Quality MeasureQuality(const sper::GroundTruth& truth,
                       const std::vector<Comparison>& head) {
  sper::EvalOptions options;
  options.ecstar_max = 10.0;
  options.curve_points_per_unit = 1;
  options.auc_at = {1.0, 10.0};
  const sper::ProgressiveEvaluator evaluator(truth, options);
  const sper::RunResult run = evaluator.Run(
      [&head] { return std::make_unique<ReplayEmitter>(head); });
  Quality quality;
  quality.auc_at_1 = run.auc_norm[0];
  quality.auc_at_10 = run.auc_norm[1];
  quality.recall_at_ec10 = run.final_recall;
  return quality;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) +
                               0.5));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) return HostCpu{};
    cpu.total += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

void Tracer::Record(std::string_view name,
                    sper::obs::Stopwatch::TimePoint start,
                    sper::obs::Stopwatch::TimePoint end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) const {
  if (!enabled()) return;
  std::string args = "{\"id\":" + std::to_string(id) +
                     ",\"parent\":" + std::to_string(parent);
  if (request != 0) args += ",\"request\":" + std::to_string(request);
  args += "}";
  registry_->RecordSpan(name, start, end, std::move(args));
}

std::string ProvenanceJson(const Provenance& p) {
  return "{\"provenance\": {\"workload\": " + Quoted(p.workload) +
         ", \"seed\": " + std::to_string(p.seed) +
         ", \"dataset\": " + Quoted(p.dataset) +
         ", \"scale\": " + Number(p.scale) +
         ", \"trace\": " + (p.trace ? "true" : "false") +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + Quoted(PERFBENCH_COMPILER) +
         ", \"revision\": " + Quoted(p.revision) +
         ", \"host_steal_share\": " + Number(p.host_steal_share) + "}}";
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += Quoted(metrics[k].name) + ": {\"value\": " +
           Number(metrics[k].value) + ", \"unit\": " +
           Quoted(metrics[k].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
