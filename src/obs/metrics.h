#ifndef SPER_OBS_METRICS_H_
#define SPER_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// \file metrics.h
/// The runtime metric primitives of the observability layer: monotonic
/// counters, gauges and fixed-bucket latency histograms. All three are
/// safe to write from any number of threads with relaxed atomics and safe
/// to *read while being written* (snapshots see some consistent-enough
/// recent value, never torn data) — which is what lets a metrics endpoint
/// snapshot a live engine without stopping it.
///
/// These classes are primitives, not instrumentation seams: tests and
/// direct users hold them without a TelemetryScope (telemetry.h).

namespace sper {
namespace obs {

/// A monotonic counter, striped across cache lines so concurrent writers
/// (e.g. one emission-pipeline producer per shard) never contend on one
/// hot cache line. Each thread hashes to a stripe once (thread_local) and
/// then increments with one relaxed fetch_add; value() sums the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  /// Adds `n` (relaxed; safe from any thread).
  void Add(std::uint64_t n = 1) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all stripes. Safe concurrently with Add (the sum may lag
  /// in-flight increments by design).
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  static std::size_t ThreadStripe() {
    // One stripe per thread, assigned round-robin on first use; the id is
    // process-global so two counters never systematically collide worse
    // than random.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  Stripe stripes_[kStripes];
};

/// A last-value (or accumulating) gauge holding a double — used for
/// one-shot facts like per-phase init seconds.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Accumulates (C++20 atomic<double>::fetch_add); lets a phase that
  /// runs in pieces sum into one gauge.
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Quantile summary of a histogram at one instant (see Histogram).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Fixed-bucket histogram of non-negative integer samples (latencies in
/// nanoseconds, ring occupancies, slice sizes).
///
/// Bucket layout (HDR-style): values 0..15 get one bucket each (exact);
/// larger values get 4 sub-buckets per power of two, i.e. at most 25%
/// relative bucket width. 256 buckets total cover the whole uint64 range
/// with 2 KiB of storage, so a histogram is cheap enough to exist per
/// shard per metric.
///
/// Quantiles are *exact-rank*: Quantile(q) finds the bucket containing
/// the ceil(q * count)-th smallest recorded sample — the rank selection
/// is exact, the returned value is that bucket's lower bound (so samples
/// that are themselves bucket lower bounds, e.g. values < 16 or powers of
/// two, are recovered exactly).
///
/// Record() is wait-free (one relaxed fetch_add per sample plus a relaxed
/// max update); readers may run concurrently with writers.
class Histogram {
 public:
  static constexpr std::size_t kLinearBuckets = 16;
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr std::size_t kNumBuckets =
      kLinearBuckets + kSubBuckets * (64 - 4);  // msb 4..63

  /// Records one sample.
  void Record(std::uint64_t value) {
    counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Adds every recorded sample of `other` into this histogram.
  void Merge(const Histogram& other) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      const std::uint64_t n =
          other.counts_[b].load(std::memory_order_relaxed);
      if (n != 0) counts_[b].fetch_add(n, std::memory_order_relaxed);
    }
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    const std::uint64_t other_max =
        other.max_.load(std::memory_order_relaxed);
    while (other_max > seen &&
           !max_.compare_exchange_weak(seen, other_max,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Samples recorded so far (sum of bucket counts).
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      total += counts_[b].load(std::memory_order_relaxed);
    }
    return total;
  }

  /// The lower bound of the bucket holding the sample of exact rank
  /// ceil(q * count); 0 on an empty histogram. q is clamped into [0, 1].
  std::uint64_t Quantile(double q) const;

  /// One consistent-enough summary (count/sum/max/p50/p90/p99) read off
  /// the live buckets.
  HistogramSnapshot Snapshot() const;

  /// The lower bound of bucket `b` (the value Quantile can return).
  static std::uint64_t BucketLowerBound(std::size_t b);
  /// The bucket a value lands in.
  static std::size_t BucketIndex(std::uint64_t value);

 private:
  std::atomic<std::uint64_t> counts_[kNumBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_METRICS_H_
