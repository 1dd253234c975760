// Emission pipeline suite. The contract under test
// (src/parallel/emission_pipeline.h + engine wiring):
//
// - the pipelined emission stream is *bit-identical* to the serial
//   reference path (lookahead 0) for PPS and PBS on Dirty and
//   Clean-Clean stores, at every lookahead (1/4/64) and init thread
//   count (1/2/4/8);
// - the same holds through ShardedEngine (S = 1/4): parallel per-shard
//   refills never change the merged order;
// - a ProgressiveEngine pipelines only on a pool its caller provides
//   (ShardedEngine, or these tests);
// - the pay-as-you-go budget composes with the pipeline, and abandoning
//   a pipelined stream mid-flight (budget exhaustion, early destruction)
//   shuts down cleanly — no hang, no leak, producer unblocked;
// - the SpscSlotRing / EmissionPipeline primitives handle shutdown,
//   exhaustion and producer exceptions.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/sharded_engine.h"
#include "parallel/emission_pipeline.h"
#include "parallel/spsc_ring.h"
#include "parallel/thread_pool.h"

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

// ------------------------------------------------------- SpscSlotRing unit

TEST(SpscSlotRingTest, HandsOverEverythingInOrder) {
  SpscSlotRing<int> ring(3);
  ThreadPool pool(1);
  pool.Submit([&ring] {
    for (int v = 0; v < 100; ++v) {
      int* slot = ring.AcquireSlot();
      ASSERT_NE(slot, nullptr);
      *slot = v;
      ring.CommitSlot();
    }
    ring.FinishProduction();
  });
  std::vector<int> seen;
  for (;;) {
    int* front = ring.Front();
    if (front == nullptr) break;
    seen.push_back(*front);
    ring.PopFront();
  }
  pool.Wait();
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

TEST(SpscSlotRingTest, CloseUnblocksAFullRingProducer) {
  SpscSlotRing<int> ring(1);
  ThreadPool pool(1);
  pool.Submit([&ring] {
    // Fill the single slot, then block on the second acquire until the
    // consumer closes the ring.
    int* slot = ring.AcquireSlot();
    ASSERT_NE(slot, nullptr);
    ring.CommitSlot();
    EXPECT_EQ(ring.AcquireSlot(), nullptr);
    ring.FinishProduction();
  });
  ASSERT_NE(ring.Front(), nullptr);  // wait until the slot is committed
  ring.Close();
  pool.Wait();  // must not hang
}

TEST(SpscSlotRingTest, ZeroCapacityIsClampedToOneSlot) {
  SpscSlotRing<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
}

// --------------------------------------------------- EmissionPipeline unit

TEST(EmissionPipelineTest, DrainsTheWholeStreamThenSignalsExhaustion) {
  ThreadPool pool(1);
  int next = 0;
  EmissionPipeline<std::vector<int>> pipeline(
      4, [&next](std::vector<int>& batch) {
        if (next >= 30) return false;
        batch.assign({next, next + 1, next + 2});
        next += 3;
        return true;
      });
  pipeline.Start(pool);
  std::vector<int> seen;
  for (;;) {
    std::vector<int>* front = pipeline.Front();
    if (front == nullptr) break;
    seen.insert(seen.end(), front->begin(), front->end());
    pipeline.PopFront();
  }
  EXPECT_EQ(pipeline.Front(), nullptr);  // exhaustion is sticky
  std::vector<int> expected(30);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

TEST(EmissionPipelineTest, ShutdownMidStreamDoesNotHang) {
  ThreadPool pool(1);
  int produced = 0;
  {
    EmissionPipeline<std::vector<int>> pipeline(
        2, [&produced](std::vector<int>& batch) {
          batch.assign(1, produced++);
          return true;  // endless stream
        });
    pipeline.Start(pool);
    ASSERT_NE(pipeline.Front(), nullptr);  // consume one batch...
    pipeline.PopFront();
  }  // ...and abandon: the destructor closes the ring and joins
  const int at_shutdown = produced;
  EXPECT_GE(at_shutdown, 1);
  // The producer really exited: nothing is produced after shutdown.
  EXPECT_EQ(produced, at_shutdown);
}

TEST(EmissionPipelineTest, NeverStartedPipelineDestructsCleanly) {
  EmissionPipeline<std::vector<int>> pipeline(
      2, [](std::vector<int>&) { return false; });
}

TEST(EmissionPipelineTest, ProducerExceptionIsContainedWithBatchContext) {
  ThreadPool pool(1);
  int batches = 0;
  EmissionPipeline<std::vector<int>> pipeline(
      2, [&batches](std::vector<int>& batch) -> bool {
        if (batches == 2) throw std::runtime_error("producer died");
        batch.assign(1, batches++);
        return true;
      });
  pipeline.Start(pool);
  // The producer's death must surface as an end-of-stream plus error(),
  // never as an exception rethrown across Front().
  std::size_t drained = 0;
  for (;;) {
    std::vector<int>* front = pipeline.Front();
    if (front == nullptr) break;
    ++drained;
    pipeline.PopFront();
  }
  EXPECT_EQ(drained, 2u);
  const EmissionPipelineError error = pipeline.error();
  ASSERT_NE(error.exception, nullptr);
  EXPECT_EQ(error.batch_index, 2u);  // died producing the third batch
  EXPECT_THROW(std::rethrow_exception(error.exception), std::runtime_error);
}

TEST(EmissionPipelineTest, CleanExhaustionReportsNoError) {
  ThreadPool pool(1);
  int batches = 0;
  EmissionPipeline<std::vector<int>> pipeline(
      2, [&batches](std::vector<int>& batch) -> bool {
        if (batches == 3) return false;
        batch.assign(1, batches++);
        return true;
      });
  pipeline.Start(pool);
  std::size_t drained = 0;
  while (pipeline.Front() != nullptr) {
    ++drained;
    pipeline.PopFront();
  }
  EXPECT_EQ(drained, 3u);
  EXPECT_EQ(pipeline.error().exception, nullptr);
}

// ------------------------------------------- engine streams, bit-identical

struct PipelineCase {
  MethodId method;
  bool clean_clean;
};

class PipelinedDeterminismTest
    : public ::testing::TestWithParam<PipelineCase> {};

std::vector<Comparison> EnginePrefix(const ProfileStore& store,
                                     MethodId method, std::size_t lookahead,
                                     std::size_t num_threads,
                                     std::size_t limit) {
  ResolverOptions options;
  options.method = method;
  options.num_threads = num_threads;
  options.lookahead = lookahead;
  ThreadPool pool(1);  // hosts the producer; outlives the engine
  ProgressiveEngine engine(store, options, &pool);
  return Drain(&engine, limit);
}

TEST_P(PipelinedDeterminismTest, LookaheadAndThreadsNeverChangeTheStream) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  const std::vector<Comparison> reference =
      EnginePrefix(store, GetParam().method, /*lookahead=*/0,
                   /*num_threads=*/1, 2000);
  EXPECT_FALSE(reference.empty());
  for (std::size_t lookahead : {1u, 4u, 64u}) {
    for (std::size_t num_threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("lookahead=" + std::to_string(lookahead) +
                   " threads=" + std::to_string(num_threads));
      ExpectSameSequence(EnginePrefix(store, GetParam().method, lookahead,
                                      num_threads, 2000),
                         reference);
    }
  }
}

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

TEST(EmissionPipelineEngineTest, BudgetExhaustionAbandonsThePipelineCleanly) {
  const ProfileStore store = DirtyStore();
  ResolverOptions unbudgeted;
  unbudgeted.method = MethodId::kPps;
  unbudgeted.lookahead = 4;
  // One pool per engine: each pipelined engine needs a free worker for
  // its whole lifetime, and both stay alive to the end of the test.
  ThreadPool full_pool(1);
  ProgressiveEngine full(store, unbudgeted, &full_pool);
  const std::vector<Comparison> reference = Drain(&full, 25);

  ResolverOptions options = unbudgeted;
  options.budget = 25;
  ThreadPool pool(1);
  ProgressiveEngine engine(store, options, &pool);
  const std::vector<Comparison> emitted = Drain(&engine, 1000000);
  EXPECT_EQ(emitted.size(), 25u);
  EXPECT_TRUE(engine.BudgetExhausted());
  EXPECT_FALSE(engine.Next().has_value());
  ExpectSameSequence(emitted, reference);
}  // both engines shut their producers down mid-stream here

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
}  // four shard producers abandoned mid-stream: destructor must not hang

TEST(EmissionPipelineEngineTest, UndrainedPipelinedEngineDestructsCleanly) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.method = MethodId::kPbs;
  options.lookahead = 64;
  ThreadPool pool(1);
  ProgressiveEngine engine(store, options, &pool);
  ASSERT_TRUE(engine.Next().has_value());  // pipeline primed and running
}

TEST(EmissionPipelineEngineTest, ManyShardsFallBackToSerialRefills) {
  // Past the 64-producer cap ShardedEngine silently drops to serial
  // refills instead of spawning a thread per shard; the merged stream
  // must be unchanged.
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

TEST(EmissionPipelineEngineTest, SortBasedMethodsIgnoreLookahead) {
  const ProfileStore store = DirtyStore();
  ResolverOptions serial;
  serial.method = MethodId::kSaPsn;
  ProgressiveEngine reference(store, serial);

  ResolverOptions options = serial;
  options.lookahead = 8;
  ThreadPool pool(1);  // offered, never used
  ProgressiveEngine engine(store, options, &pool);
  ExpectSameSequence(Drain(&engine, 500), Drain(&reference, 500));
}

}  // namespace
}  // namespace sper
