// Telemetry must be a pure observer: attaching a TelemetryScope to a
// resolver records metrics and spans but MUST NOT perturb the emitted
// comparison stream — bit-identical with telemetry on or off at every
// serving shape (plain, sharded serial, sharded pipelined). These tests
// pin that contract for both batch-refilling methods, plus the shape of
// what gets recorded (per-phase InitStats, session histograms, spans).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/experiment.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace sper {
namespace {

std::vector<Comparison> Drain(ProgressiveEmitter* emitter,
                              std::size_t limit) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter->Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

void ExpectSameSequence(const std::vector<Comparison>& a,
                        const std::vector<Comparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i) << "position " << k;
    EXPECT_EQ(a[k].j, b[k].j) << "position " << k;
    EXPECT_DOUBLE_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

struct Shape {
  MethodId method;
  std::size_t num_shards;
  std::size_t lookahead;
};

class TelemetryShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TelemetryShapeTest, StreamBitIdenticalWithTelemetryOnAndOff) {
  const Shape shape = GetParam();
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());

  ResolverOptions off;
  off.method = shape.method;
  off.num_shards = shape.num_shards;
  off.lookahead = shape.lookahead;
  std::unique_ptr<Resolver> plain = MakeResolver(dataset.value(), off);
  ASSERT_NE(plain, nullptr);

  obs::Registry registry;
  ResolverOptions on = off;
  on.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> instrumented = MakeResolver(dataset.value(), on);
  ASSERT_NE(instrumented, nullptr);

  ExpectSameSequence(Drain(plain.get(), 5000),
                     Drain(instrumented.get(), 5000));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByShape, TelemetryShapeTest,
    ::testing::Values(Shape{MethodId::kPps, 1, 0}, Shape{MethodId::kPps, 4, 0},
                      Shape{MethodId::kPps, 4, 4}, Shape{MethodId::kPbs, 1, 0},
                      Shape{MethodId::kPbs, 4, 0},
                      Shape{MethodId::kPbs, 4, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      std::string name(ToString(info.param.method));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_shards" + std::to_string(info.param.num_shards) +
             "_lookahead" + std::to_string(info.param.lookahead);
    });

TEST(TelemetryInitStatsTest, PlainEnginePhasesSumBelowTotal) {
  // The plain engine runs its phases sequentially, so the breakdown must
  // be present (workflow steps + method_build), each non-negative, and
  // init_seconds stays the authoritative total.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), {});
  const InitStats& stats = resolver->init_stats();
  ASSERT_FALSE(stats.phases.empty());
  bool saw_token_blocking = false;
  bool saw_method_build = false;
  double sum = 0.0;
  for (const InitPhase& phase : stats.phases) {
    EXPECT_EQ(phase.shard, 0u) << phase.name;
    EXPECT_GE(phase.seconds, 0.0) << phase.name;
    sum += phase.seconds;
    saw_token_blocking |= phase.name == "token_blocking";
    saw_method_build |= phase.name == "method_build";
  }
  EXPECT_TRUE(saw_token_blocking);
  EXPECT_TRUE(saw_method_build);
  EXPECT_LE(sum, stats.init_seconds + 1e-6);
}

TEST(TelemetryInitStatsTest, ShardedEngineReportsPerShardPhases) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  ResolverOptions config;
  config.num_shards = 4;
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  const InitStats& stats = resolver->init_stats();
  // One "partition" phase on shard 0, then every shard contributes its
  // inner engine's phases (workflow + method_build).
  ASSERT_FALSE(stats.phases.empty());
  EXPECT_EQ(stats.phases.front().name, "partition");
  std::vector<int> method_builds(config.num_shards, 0);
  for (const InitPhase& phase : stats.phases) {
    ASSERT_LT(phase.shard, config.num_shards);
    EXPECT_GE(phase.seconds, 0.0);
    if (phase.name == "method_build") ++method_builds[phase.shard];
  }
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    EXPECT_EQ(method_builds[s], 1) << "shard " << s;
  }
}

#ifndef SPER_NO_TELEMETRY

TEST(TelemetrySessionTest, SessionHistogramsMatchRequestCount) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  constexpr std::uint64_t kRequests = 5;
  constexpr std::uint64_t kBudget = 100;
  std::uint64_t delivered = 0;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    delivered += resolver->Serve({kBudget, kBudget}).comparisons.size();
  }

  const obs::Counter* requests = registry.FindCounter("session.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value(), kRequests);
  for (const char* name :
       {"session.queue_wait_ns", "session.service_ns",
        "session.slice_comparisons"}) {
    const obs::Histogram* h = registry.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), kRequests) << name;
  }
  // Slice sizes are small integers (<= kBudget), so the histogram sum is
  // exact: it must equal the total comparisons actually delivered.
  const obs::Histogram* slices =
      registry.FindHistogram("session.slice_comparisons");
  EXPECT_EQ(slices->Snapshot().sum, delivered);
  EXPECT_EQ(delivered, kRequests * kBudget);  // stream has plenty left

  // One "session.resolve" span per request rides on top of the init
  // phase spans.
  EXPECT_GE(registry.num_spans(), kRequests);
}

TEST(TelemetrySessionTest, PipelineAndMergeMetricsAppearWhenSharded) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.num_shards = 2;
  config.lookahead = 4;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  const std::vector<Comparison> drained = Drain(resolver.get(), 2000);
  ASSERT_FALSE(drained.empty());

  // Per-shard init gauges and pipeline counters exist under the shard
  // prefix; the merge draw counters across shards account for every
  // drained comparison.
  std::uint64_t draws = 0;
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    const std::string prefix = "shard" + std::to_string(s) + ".";
    EXPECT_NE(registry.FindGauge(prefix + "phase.init_seconds"), nullptr);
    const obs::Counter* batches =
        registry.FindCounter(prefix + "pipeline.batches");
    ASSERT_NE(batches, nullptr);
    EXPECT_GT(batches->value(), 0u);
    EXPECT_NE(registry.FindHistogram(prefix + "pipeline.ring_occupancy"),
              nullptr);
    const obs::Counter* shard_draws =
        registry.FindCounter("merge.shard" + std::to_string(s) + ".draws");
    ASSERT_NE(shard_draws, nullptr);
    draws += shard_draws->value();
  }
  EXPECT_EQ(draws, drained.size());
}

TEST(TelemetrySessionTest, SnapshotAndTraceExportWhileServing) {
  // Snapshotting a live resolver between requests must be safe and
  // reflect the requests served so far.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.num_shards = 2;
  config.lookahead = 2;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  for (int r = 0; r < 3; ++r) {
    resolver->Serve({50, 50});
    const std::string json = registry.SnapshotJson();
    EXPECT_NE(json.find("\"session.requests\": " + std::to_string(r + 1)),
              std::string::npos)
        << json;
  }
}

#endif  // SPER_NO_TELEMETRY

}  // namespace
}  // namespace sper
