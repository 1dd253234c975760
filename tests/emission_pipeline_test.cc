// Emission pipeline suite. The contract under test
// (src/parallel/emission_pipeline.h + engine wiring):
//
// - the ordered multi-producer ring hands the consumer every batch in
//   index order at every producer count and ring capacity, bounds the
//   look-ahead by its capacity, and contains producer failures: the
//   batches before the failing one are served, the failure surfaces at
//   its batch index, and nothing is rethrown across the ring;
// - a plain engine's refill workers start on the first pull, not in the
//   constructor (their stream is pinned bit-identical to the serial path
//   by determinism_test's ThreadCountInvarianceTest);
// - ShardedEngine (S = 1/4) with pipelined refills keeps the merged order
//   of serial refills for PPS and PBS on Dirty and Clean-Clean stores;
// - the pay-as-you-go budget composes with the pipeline, and abandoning
//   a pipelined stream mid-flight (budget exhaustion, early destruction)
//   shuts down cleanly — no hang, no leak, workers joined.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/sharded_engine.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "parallel/emission_pipeline.h"
#include "progressive/comparison_list.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

ProfileStore CleanCleanStore() {
  DatagenOptions gen;
  gen.scale = 0.1;
  Result<DatasetBundle> ds = GenerateDataset("movies", gen);
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

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
    EXPECT_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

// --------------------------------------------------- EmissionPipeline unit

using Pipeline = EmissionPipeline<ComparisonList>;

/// Groups of `size` batches over `num_batches` batches.
std::vector<std::size_t> EvenGroups(std::size_t num_batches,
                                    std::size_t size) {
  std::vector<std::size_t> starts;
  for (std::size_t b = 0; b < num_batches; b += size) starts.push_back(b);
  starts.push_back(num_batches);
  return starts;
}

/// Batch b holds b % 3 comparisons (some batches are empty), all tagged
/// with b, so the consumed sequence shows the batch order.
void TaggedBatch(std::size_t index, ComparisonList& out) {
  for (std::size_t k = 0; k < index % 3; ++k) {
    out.Add(Comparison(static_cast<ProfileId>(index),
                       static_cast<ProfileId>(index + k + 1), 1.0));
  }
}

std::vector<std::size_t> ConsumeTags(Pipeline& pipeline) {
  std::vector<std::size_t> tags;
  for (;;) {
    ComparisonList* front = pipeline.Front();
    if (front == nullptr) break;
    while (!front->Empty()) tags.push_back(front->PopFirst().i);
    pipeline.PopFront();
  }
  return tags;
}

std::vector<std::size_t> ExpectedTags(std::size_t num_batches) {
  std::vector<std::size_t> tags;
  for (std::size_t b = 0; b < num_batches; ++b) {
    for (std::size_t k = 0; k < b % 3; ++k) tags.push_back(b);
  }
  return tags;
}

TEST(EmissionPipelineTest, ConsumerReadsEveryBatchInIndexOrder) {
  constexpr std::size_t kBatches = 500;
  for (std::size_t producers : {1u, 2u, 3u, 4u, 8u}) {
    for (std::size_t capacity :
         {std::size_t{1}, std::size_t{2}, 4 * producers}) {
      for (std::size_t group : {1u, 7u, 64u}) {
        SCOPED_TRACE("producers=" + std::to_string(producers) +
                     " capacity=" + std::to_string(capacity) +
                     " group=" + std::to_string(group));
        Pipeline pipeline(EvenGroups(kBatches, group), producers, capacity,
                          16, [](std::size_t, std::size_t index,
                                 ComparisonList& out) {
                            TaggedBatch(index, out);
                          });
        pipeline.Start();
        EXPECT_EQ(ConsumeTags(pipeline), ExpectedTags(kBatches));
        EXPECT_EQ(pipeline.Front(), nullptr);  // exhaustion is sticky
        EXPECT_EQ(pipeline.error().exception, nullptr);
      }
    }
  }
}

TEST(EmissionPipelineTest, EmptyStreamIsExhaustedAtOnce) {
  Pipeline pipeline({0}, 4, 16, 0,
                    [](std::size_t, std::size_t, ComparisonList&) {
                      ADD_FAILURE() << "no batch to produce";
                    });
  pipeline.Start();
  EXPECT_EQ(pipeline.Front(), nullptr);
  EXPECT_EQ(pipeline.error().exception, nullptr);
}

TEST(EmissionPipelineTest, LookaheadIsBoundedByTheRing) {
  // One batch per group, four slots: the producers may run at most four
  // groups ahead of the consumer, however many of them there are.
  std::atomic<std::size_t> produced{0};
  Pipeline pipeline(EvenGroups(1000, 1), 3, 4, 0,
                    [&produced](std::size_t, std::size_t index,
                                ComparisonList& out) {
                      TaggedBatch(index, out);
                      produced.fetch_add(1);
                    });
  const auto await = [&produced](std::size_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (produced.load() < n &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  pipeline.Start();
  await(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(produced.load(), 4u);
  ASSERT_NE(pipeline.Front(), nullptr);
  pipeline.PopFront();  // frees exactly one slot
  await(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(produced.load(), 5u);
}

TEST(EmissionPipelineTest, ShutdownMidStreamJoinsTheProducers) {
  std::atomic<std::size_t> produced{0};
  {
    Pipeline pipeline(EvenGroups(1000000, 4), 4, 16, 0,
                      [&produced](std::size_t, std::size_t index,
                                  ComparisonList& out) {
                        TaggedBatch(index, out);
                        produced.fetch_add(1);
                      });
    pipeline.Start();
    ASSERT_NE(pipeline.Front(), nullptr);  // consume one group...
    pipeline.PopFront();
  }  // ...and abandon: the destructor closes the ring and joins
  const std::size_t at_shutdown = produced.load();
  EXPECT_GE(at_shutdown, 4u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(produced.load(), at_shutdown);  // nothing runs any more
}

TEST(EmissionPipelineTest, NeverStartedPipelineDestructsCleanly) {
  Pipeline pipeline(EvenGroups(10, 2), 4, 8, 0,
                    [](std::size_t, std::size_t, ComparisonList&) {});
}

TEST(EmissionPipelineTest, ExpiredTokenLeavesTheStreamIntact) {
  Pipeline pipeline(EvenGroups(30, 5), 2, 4, 0,
                    [](std::size_t, std::size_t index, ComparisonList& out) {
                      TaggedBatch(index, out);
                    });
  // Not started: nothing is committed, so a fired token gives up at once.
  CancelSource source;
  source.Cancel();
  bool expired = false;
  EXPECT_EQ(pipeline.FrontUntil(source.token(), &expired), nullptr);
  EXPECT_TRUE(expired);
  pipeline.Start();
  EXPECT_EQ(ConsumeTags(pipeline), ExpectedTags(30));
}

TEST(EmissionPipelineTest, FailureSurfacesAtItsBatchAfterTheBatchesBefore) {
  // Batch 37 appends part of its output, then throws. Every producer
  // count serves exactly batches 0..36 — never 37's partial output, never
  // a later batch another producer already finished — then reports 37.
  constexpr std::size_t kFailing = 37;
  for (std::size_t producers : {1u, 4u}) {
    SCOPED_TRACE("producers=" + std::to_string(producers));
    Pipeline pipeline(
        EvenGroups(200, 8), producers, 4 * producers, 0,
        [](std::size_t, std::size_t index, ComparisonList& out) {
          TaggedBatch(index, out);
          if (index >= kFailing) {
            out.Add(Comparison(0, 1, 9.0));
            throw std::runtime_error("producer died");
          }
        });
    pipeline.Start();
    EXPECT_EQ(ConsumeTags(pipeline), ExpectedTags(kFailing));
    EXPECT_EQ(pipeline.Front(), nullptr);  // the failure is sticky
    const EmissionPipelineError error = pipeline.error();
    ASSERT_NE(error.exception, nullptr);
    EXPECT_EQ(error.batch_index, kFailing);
    EXPECT_THROW(std::rethrow_exception(error.exception),
                 std::runtime_error);
  }
}

// ------------------------------------------- engine streams, bit-identical

struct PipelineCase {
  MethodId method;
  bool clean_clean;
};

class PipelinedDeterminismTest
    : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelinedDeterminismTest, ShardedParallelRefillsKeepTheMergedOrder) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  for (std::size_t num_shards : {1u, 4u}) {
    ResolverOptions serial;
    serial.method = GetParam().method;
    serial.num_shards = num_shards;
    ShardedEngine reference(store, serial);
    const std::vector<Comparison> expected = Drain(&reference, 2000);

    ResolverOptions pipelined = serial;
    pipelined.lookahead = 4;
    pipelined.num_threads = 4;
    ShardedEngine engine(store, pipelined);
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ExpectSameSequence(Drain(&engine, 2000), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbs, PipelinedDeterminismTest,
    ::testing::Values(PipelineCase{MethodId::kPps, false},
                      PipelineCase{MethodId::kPps, true},
                      PipelineCase{MethodId::kPbs, false},
                      PipelineCase{MethodId::kPbs, true}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      std::string name(ToString(info.param.method));
      name += info.param.clean_clean ? "_CleanClean" : "_Dirty";
      return name;
    });

// --------------------------------------------- budget / shutdown composition

TEST(EmissionPipelineEngineTest, RefillWorkersStartOnTheFirstPull) {
  const ProfileStore store = DirtyStore();
  obs::Registry registry;
  ResolverOptions options;
  options.method = MethodId::kPps;
  options.num_threads = 4;
  options.telemetry = obs::TelemetryScope(&registry);
  ProgressiveEngine engine(store, options);
  const obs::Counter* groups = registry.FindCounter("pipeline.batches");
  ASSERT_NE(groups, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(groups->value(), 0u) << "set-up must not share the cores";
  ASSERT_TRUE(engine.Next().has_value());
  EXPECT_GT(groups->value(), 0u);
}

TEST(EmissionPipelineEngineTest, BudgetExhaustionAbandonsThePipelineCleanly) {
  const ProfileStore store = DirtyStore();
  ResolverOptions unbudgeted;
  unbudgeted.method = MethodId::kPps;
  ProgressiveEngine full(store, unbudgeted);
  const std::vector<Comparison> reference = Drain(&full, 25);

  ResolverOptions options = unbudgeted;
  options.num_threads = 4;
  options.budget = 25;
  ProgressiveEngine engine(store, options);
  const std::vector<Comparison> emitted = Drain(&engine, 1000000);
  EXPECT_EQ(emitted.size(), 25u);
  EXPECT_TRUE(engine.BudgetExhausted());
  EXPECT_FALSE(engine.Next().has_value());
  ExpectSameSequence(emitted, reference);
}  // the four workers are abandoned mid-stream here

TEST(EmissionPipelineEngineTest, ShardedGlobalBudgetWithParallelRefills) {
  const ProfileStore store = DirtyStore();
  ResolverOptions config;
  config.method = MethodId::kPps;
  config.num_shards = 4;
  config.budget = 25;
  config.lookahead = 4;
  ShardedEngine engine(store, config);
  EXPECT_EQ(Drain(&engine, 1000000).size(), 25u);
  EXPECT_TRUE(engine.BudgetExhausted());
}  // four shard workers abandoned mid-stream: destructor must not hang

TEST(EmissionPipelineEngineTest, UndrainedPipelinedEngineDestructsCleanly) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.method = MethodId::kPbs;
  options.num_threads = 8;
  ProgressiveEngine engine(store, options);
  ASSERT_TRUE(engine.Next().has_value());  // workers started and running
}

TEST(EmissionPipelineEngineTest, DrainJoinsTheWorkersAndEndsTheStream) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.method = MethodId::kPps;
  options.num_threads = 4;
  ProgressiveEngine engine(store, options);
  ASSERT_TRUE(engine.Next().has_value());
  engine.Drain();
  EXPECT_FALSE(engine.Next().has_value());
  engine.Drain();  // idempotent
}

TEST(EmissionPipelineEngineTest, ManyShardsFallBackToSerialRefills) {
  // Past the 64-worker cap ShardedEngine silently drops to serial refills
  // instead of spawning a thread per shard; the merged stream must be
  // unchanged.
  const ProfileStore store = DirtyStore();  // 864 profiles, ~128 active
  ResolverOptions serial;
  serial.method = MethodId::kPps;
  serial.num_shards = 128;
  ShardedEngine reference(store, serial);
  const std::vector<Comparison> expected = Drain(&reference, 1000);

  ResolverOptions pipelined = serial;
  pipelined.lookahead = 4;
  ShardedEngine engine(store, pipelined);
  ExpectSameSequence(Drain(&engine, 1000), expected);
}

TEST(EmissionPipelineEngineTest, SortBasedMethodsIgnoreRefillWorkers) {
  const ProfileStore store = DirtyStore();
  ResolverOptions serial;
  serial.method = MethodId::kSaPsn;
  ProgressiveEngine reference(store, serial);

  ResolverOptions options = serial;
  options.num_threads = 8;
  ProgressiveEngine engine(store, options);
  ExpectSameSequence(Drain(&engine, 500), Drain(&reference, 500));
}

}  // namespace
}  // namespace sper
