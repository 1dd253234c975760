// Observability primitives (src/obs): bucket geometry and exact-rank
// quantiles of the fixed-bucket histogram, histogram merge, concurrent
// counter increments, snapshot-while-recording safety, and the registry /
// TelemetryScope / ScopedPhase seam (naming, span log, JSON export).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace sper {
namespace obs {
namespace {

TEST(HistogramBucketsTest, SmallValuesGetExactBuckets) {
  // Values 0..15 are one bucket each, recovered exactly.
  for (std::uint64_t v = 0; v < Histogram::kLinearBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramBucketsTest, LowerBoundIndexRoundTrip) {
  // Every bucket's lower bound must land back in that bucket, and bucket
  // lower bounds must be strictly increasing (no empty/overlapping
  // buckets anywhere in the layout).
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(b)), b)
        << "bucket " << b;
    if (b > 0) {
      EXPECT_GT(Histogram::BucketLowerBound(b),
                Histogram::BucketLowerBound(b - 1));
    }
  }
}

TEST(HistogramBucketsTest, ValueNeverBelowItsBucketLowerBound) {
  // Probe a spread of values including bucket edges: the containing
  // bucket's lower bound is <= the value (quantiles never over-report).
  for (std::uint64_t v :
       {std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{100}, std::uint64_t{1000},
        std::uint64_t{123456789}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 40) + 12345, ~std::uint64_t{0}}) {
    const std::size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v);
    if (b + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::BucketLowerBound(b + 1));
    }
  }
}

TEST(HistogramTest, ExactQuantilesOnExactlyRepresentableValues) {
  // 1..10 once each: every value < 16 is its own bucket, so exact-rank
  // quantiles recover the exact order statistics.
  Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.Quantile(0.0), 1u);   // rank clamps to 1 -> smallest sample
  EXPECT_EQ(h.Quantile(0.5), 5u);   // ceil(0.5 * 10) = 5th smallest
  EXPECT_EQ(h.Quantile(0.9), 9u);
  EXPECT_EQ(h.Quantile(0.99), 10u); // ceil(9.9) = 10th
  EXPECT_EQ(h.Quantile(1.0), 10u);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.sum, 55u);
  EXPECT_EQ(s.max, 10u);
  EXPECT_EQ(s.p50, 5u);
  EXPECT_EQ(s.p90, 9u);
  EXPECT_EQ(s.p99, 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(HistogramTest, SkewedDistributionQuantiles) {
  // 99 fast samples at 2 and one slow sample at 1024 (a power of two, so
  // its bucket lower bound is itself): p50/p90 see the fast mode, p99
  // lands exactly on the outlier (rank ceil(0.99 * 100) = 99 is still a
  // 2; rank 100 is the outlier -> use q = 1.0), max is exact.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(2);
  h.Record(1024);
  EXPECT_EQ(h.Quantile(0.5), 2u);
  EXPECT_EQ(h.Quantile(0.9), 2u);
  EXPECT_EQ(h.Quantile(0.99), 2u);
  EXPECT_EQ(h.Quantile(1.0), 1024u);
  EXPECT_EQ(h.Snapshot().max, 1024u);
}

TEST(HistogramTest, QuantileLowerBoundsWideValues) {
  // Values >= 16 report their bucket's lower bound: never above the
  // sample, and within 25% relative width below it.
  Histogram h;
  const std::uint64_t v = 1000;
  h.Record(v);
  const std::uint64_t q = h.Quantile(0.5);
  EXPECT_LE(q, v);
  EXPECT_GE(q, v - v / 4);
}

TEST(HistogramTest, EmptyHistogramIsAllZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, MergeAddsCountsSumsAndMax) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v = 1; v <= 5; ++v) a.Record(v);
  for (std::uint64_t v = 6; v <= 10; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 10u);
  const HistogramSnapshot s = a.Snapshot();
  EXPECT_EQ(s.sum, 55u);
  EXPECT_EQ(s.max, 10u);
  EXPECT_EQ(s.p50, 5u);  // merged order statistics, not per-source
  EXPECT_EQ(s.p99, 10u);
  // b is unchanged by being merged from.
  EXPECT_EQ(b.count(), 5u);
}

TEST(CounterTest, ConcurrentIncrementsFromManyThreadsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(CounterTest, AddWithArgumentAccumulates) {
  Counter counter;
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.value(), 7u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Add(0.25);
  gauge.Add(0.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
}

TEST(SnapshotWhileRecordingTest, ReadersSeeMonotonicConsistentCounts) {
  // Writers hammer a histogram and a counter while the main thread
  // snapshots continuously: no torn reads (count/sum must stay
  // monotonically non-decreasing, quantiles within the recorded range).
  Histogram h;
  Counter c;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v % 1000);
        c.Add();
        ++v;
      }
    });
  }
  std::uint64_t last_count = 0;
  std::uint64_t last_counter = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const HistogramSnapshot s = h.Snapshot();
    EXPECT_GE(s.count, last_count);
    EXPECT_LE(s.p50, s.max);
    EXPECT_LT(s.max, 1000u);
    last_count = s.count;
    const std::uint64_t now = c.value();
    EXPECT_GE(now, last_counter);
    last_counter = now;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  // Quiesced: totals agree across both metrics' independent tallies.
  EXPECT_EQ(h.count(), c.value());
}

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* c1 = registry.counter("a");
  Counter* c2 = registry.counter("a");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("b"), c1);
  Histogram* h1 = registry.histogram("a");  // separate namespace per kind
  EXPECT_EQ(registry.histogram("a"), h1);
  EXPECT_EQ(registry.FindCounter("a"), c1);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.FindGauge("a"), nullptr);
}

TEST(RegistryTest, SnapshotJsonHasStableSchemaAndValues) {
  Registry registry;
  registry.counter("emitted")->Add(42);
  registry.gauge("phase.init_seconds")->Set(1.5);
  registry.histogram("latency")->Record(7);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"schema\": \"sper.metrics.v1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"emitted\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase.init_seconds\": 1.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos) << json;
}

TEST(RegistryTest, RecordSpanAssignsDenseThreadIndices) {
  Registry registry;
  const Stopwatch::TimePoint t0 = registry.epoch();
  registry.RecordSpan("main", t0, Stopwatch::Now());
  std::thread([&] {
    registry.RecordSpan("worker", Stopwatch::Now(), Stopwatch::Now());
  }).join();
  registry.RecordSpan("main2", t0, Stopwatch::Now());
  EXPECT_EQ(registry.num_spans(), 3u);
  EXPECT_EQ(registry.dropped_spans(), 0u);
}

TEST(TelemetryScopeTest, DefaultScopeIsDisabledAndNull) {
  const TelemetryScope scope;
  EXPECT_FALSE(scope.enabled());
  EXPECT_EQ(scope.counter("x"), nullptr);
  EXPECT_EQ(scope.gauge("x"), nullptr);
  EXPECT_EQ(scope.histogram("x"), nullptr);
  // Sub of a disabled scope stays disabled.
  EXPECT_FALSE(scope.Sub("shard0").enabled());
}

TEST(TelemetryScopeTest, SubPrefixesMetricNames) {
  Registry registry;
  const TelemetryScope root(&registry);
  EXPECT_TRUE(root.enabled());
  const TelemetryScope shard = root.Sub("shard3");
  shard.counter("pipeline.batches")->Add(5);
  EXPECT_NE(registry.FindCounter("shard3.pipeline.batches"), nullptr);
  EXPECT_EQ(registry.FindCounter("shard3.pipeline.batches")->value(), 5u);
  // Nested Sub composes prefixes left to right.
  root.Sub("a").Sub("b").gauge("g")->Set(1.0);
  EXPECT_NE(registry.FindGauge("a.b.g"), nullptr);
}

TEST(ScopedPhaseTest, RecordsGaugeSpanAndOutSeconds) {
  Registry registry;
  const TelemetryScope scope(&registry);
  double seconds = -1.0;
  {
    ScopedPhase phase(scope, "token_blocking", &seconds);
  }
  EXPECT_GE(seconds, 0.0);
  const Gauge* gauge = registry.FindGauge("phase.token_blocking_seconds");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), seconds);
  EXPECT_EQ(registry.num_spans(), 1u);
}

TEST(ScopedPhaseTest, StopIsIdempotent) {
  Registry registry;
  const TelemetryScope scope(&registry);
  double seconds = -1.0;
  ScopedPhase phase(scope, "p", &seconds);
  phase.Stop();
  const double first = seconds;
  phase.Stop();  // second Stop and the destructor must both be no-ops
  EXPECT_DOUBLE_EQ(seconds, first);
  EXPECT_EQ(registry.num_spans(), 1u);
  EXPECT_DOUBLE_EQ(registry.FindGauge("phase.p_seconds")->value(), first);
}

TEST(ScopedPhaseTest, DisabledScopeStillFillsOutSeconds) {
  // InitStats phase breakdowns rely on the timing even when no registry
  // is attached.
  const TelemetryScope scope;
  double seconds = -1.0;
  {
    ScopedPhase phase(scope, "p", &seconds);
  }
  EXPECT_GE(seconds, 0.0);
}

TEST(StopwatchTest, ElapsedIsNonNegativeAndNanosClamp) {
  const Stopwatch watch;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  const Stopwatch::TimePoint a = Stopwatch::Now();
  const Stopwatch::TimePoint b = Stopwatch::Now();
  EXPECT_EQ(Stopwatch::Nanos(b, a), 0u);  // reversed interval clamps to 0
  EXPECT_GE(Stopwatch::Nanos(a, b), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace sper
