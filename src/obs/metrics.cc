#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sper {
namespace obs {

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const std::size_t msb =
      static_cast<std::size_t>(std::bit_width(value)) - 1;  // >= 4
  const std::size_t sub =
      static_cast<std::size_t>((value >> (msb - 2)) & (kSubBuckets - 1));
  return kLinearBuckets + (msb - 4) * kSubBuckets + sub;
}

std::uint64_t Histogram::BucketLowerBound(std::size_t b) {
  if (b < kLinearBuckets) return b;
  const std::size_t msb = 4 + (b - kLinearBuckets) / kSubBuckets;
  const std::size_t sub = (b - kLinearBuckets) % kSubBuckets;
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (msb - 2);
}

std::uint64_t Histogram::Quantile(double q) const {
  // Copy the live buckets once so rank extraction runs against one
  // consistent view even while writers keep recording.
  std::uint64_t counts[kNumBuckets];
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) return BucketLowerBound(b);
  }
  return BucketLowerBound(kNumBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count();
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.p50 = Quantile(0.50);
  snapshot.p90 = Quantile(0.90);
  snapshot.p99 = Quantile(0.99);
  // Record() bumps its bucket before max_, so a snapshot taken mid-record
  // can count a sample that max_ does not show yet. Each quantile is the
  // lower bound of a recorded sample, so the max is at least every one.
  snapshot.max = std::max({max_.load(std::memory_order_relaxed),
                           snapshot.p50, snapshot.p90, snapshot.p99});
  return snapshot;
}

}  // namespace obs
}  // namespace sper
