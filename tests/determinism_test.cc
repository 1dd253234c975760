// Determinism guarantees: the library documents that every run is
// reproducible bit-for-bit given the seeds (DESIGN.md §3). These tests pin
// that contract for every progressive method and for the evaluation layer:
// same store + same options => identical emission sequences, including
// weights.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/resolver.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/sa_psn.h"
#include "progressive/workflow.h"

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

class MethodDeterminismTest : public ::testing::TestWithParam<MethodId> {};

TEST_P(MethodDeterminismTest, SameSeedSameEmissionSequence) {
  // Two independent generations and two independent emitters must agree
  // on the first 2000 emissions, weights included.
  Result<DatasetBundle> a = GenerateDataset("restaurant");
  Result<DatasetBundle> b = GenerateDataset("restaurant");
  ASSERT_TRUE(a.ok() && b.ok());
  ResolverOptions config;
  config.method = GetParam();
  std::unique_ptr<ProgressiveEmitter> ea = MakeResolver(a.value(), config);
  std::unique_ptr<ProgressiveEmitter> eb = MakeResolver(b.value(), config);
  ASSERT_TRUE(ea != nullptr && eb != nullptr);
  ExpectSameSequence(Drain(ea.get(), 2000), Drain(eb.get(), 2000));
}

TEST_P(MethodDeterminismTest, TwoEmittersOnOneStoreAgree) {
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  ResolverOptions config;
  config.method = GetParam();
  std::unique_ptr<ProgressiveEmitter> ea =
      MakeResolver(dataset.value(), config);
  std::unique_ptr<ProgressiveEmitter> eb =
      MakeResolver(dataset.value(), config);
  ExpectSameSequence(Drain(ea.get(), 2000), Drain(eb.get(), 2000));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodDeterminismTest,
    ::testing::Values(MethodId::kPsn, MethodId::kSaPsn, MethodId::kSaPsab,
                      MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs,
                      MethodId::kPps),
    [](const ::testing::TestParamInfo<MethodId>& info) {
      std::string name(ToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeterminismTest, DifferentNeighborListSeedsChangeCoincidentalOrder) {
  // The tie shuffle must actually depend on the seed: with a different
  // seed, SA-PSN's emission order over a dataset with equal-key runs
  // should differ somewhere early.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  NeighborListOptions seed_a;
  seed_a.seed = 1;
  NeighborListOptions seed_b;
  seed_b.seed = 2;
  SaPsnEmitter ea(dataset.value().store, seed_a);
  SaPsnEmitter eb(dataset.value().store, seed_b);
  std::vector<Comparison> a = Drain(&ea, 500);
  std::vector<Comparison> b = Drain(&eb, 500);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!a[k].SamePair(b[k])) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The parallel initialization paths (block filtering, edge weighting) and
// the refill workers of a one-shard engine promise bit-identical streams
// at every thread count. Drain PPS and PBS in full on every generator
// under every weighting scheme at 1, 2, 4 and 8 threads and require exact
// equality with the 1-thread drain and with a bare emitter's Next() —
// weights compared bit-for-bit, not approximately. Resolver::Serve pulls
// whole batches, so the stream is also drained through it in slices that
// straddle refill batches (97) and pipeline slot groups (4096), at one
// and at four refill workers.
struct Generator {
  const char* name;
  double scale;  // small enough for a full drain per scheme and count
};

class ThreadCountInvarianceTest
    : public ::testing::TestWithParam<std::tuple<MethodId, Generator>> {};

void ExpectBitIdentical(const std::vector<Comparison>& expected,
                        const std::vector<Comparison>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(expected[k].i, actual[k].i) << "position " << k;
    ASSERT_EQ(expected[k].j, actual[k].j) << "position " << k;
    // Bit-identical, not EXPECT_DOUBLE_EQ: neither the parallel init
    // merge nor the refill workers may reorder any floating-point
    // accumulation.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[k].weight),
              std::bit_cast<std::uint64_t>(actual[k].weight))
        << "position " << k;
  }
}

/// Drains `resolver` through Serve in requests of `slice` comparisons.
/// Every slice but the last is full, and only the last reports the
/// stream exhausted.
std::vector<Comparison> ServeInSlices(Resolver& resolver,
                                      std::uint64_t slice) {
  std::vector<Comparison> out;
  for (;;) {
    ResolveRequest request;
    request.budget = slice;
    request.max_batch = slice;
    ResolveResult result = resolver.Serve(request);
    EXPECT_EQ(result.outcome, ResolveOutcome::kServed);
    EXPECT_FALSE(result.budget_exhausted);
    out.insert(out.end(), result.comparisons.begin(),
               result.comparisons.end());
    if (result.stream_exhausted) break;
    EXPECT_EQ(result.comparisons.size(), slice);
    if (result.comparisons.size() != slice) break;
  }
  EXPECT_EQ(resolver.emitted(), out.size());
  return out;
}

TEST_P(ThreadCountInvarianceTest, EveryThreadCountEmitsTheSerialStream) {
  const auto [method, generator] = GetParam();
  DatagenOptions gen;
  gen.scale = generator.scale;
  Result<DatasetBundle> dataset = GenerateDataset(generator.name, gen);
  ASSERT_TRUE(dataset.ok());
  const ProfileStore& store = dataset.value().store;
  for (WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
        WeightingScheme::kEcbs, WeightingScheme::kEjs}) {
    SCOPED_TRACE(std::string("scheme ") + ToString(scheme));
    const auto run = [&](std::size_t num_threads) {
      ResolverOptions options;
      options.method = method;
      options.scheme = scheme;
      options.num_threads = num_threads;
      ProgressiveEngine engine(store, options);
      return Drain(&engine, std::numeric_limits<std::size_t>::max());
    };
    const std::vector<Comparison> serial = run(1);
    ASSERT_GT(serial.size(), 0u);
    for (std::size_t num_threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(num_threads) + " threads");
      ExpectBitIdentical(serial, run(num_threads));
    }
    for (std::size_t num_threads : {1u, 4u}) {
      for (std::uint64_t slice : {97u, 4096u}) {
        SCOPED_TRACE(std::to_string(num_threads) + " threads, Serve in " +
                     std::to_string(slice) + "s");
        ResolverOptions options;
        options.method = method;
        options.scheme = scheme;
        options.num_threads = num_threads;
        Result<std::unique_ptr<Resolver>> resolver =
            Resolver::Create(store, options);
        ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
        ExpectBitIdentical(serial, ServeInSlices(*resolver.value(), slice));
      }
    }

    BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
    std::unique_ptr<ProgressiveEmitter> bare;
    if (method == MethodId::kPps) {
      PpsOptions pps;
      pps.scheme = scheme;
      bare = std::make_unique<PpsEmitter>(store, std::move(blocks), pps);
    } else {
      PbsOptions pbs;
      pbs.scheme = scheme;
      bare = std::make_unique<PbsEmitter>(store, blocks, pbs);
    }
    SCOPED_TRACE("bare emitter");
    ExpectBitIdentical(
        serial, Drain(bare.get(), std::numeric_limits<std::size_t>::max()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbsOnEveryGenerator, ThreadCountInvarianceTest,
    ::testing::Combine(::testing::Values(MethodId::kPps, MethodId::kPbs),
                       ::testing::Values(Generator{"census", 1.0},
                                         Generator{"restaurant", 1.0},
                                         Generator{"cora", 1.0},
                                         Generator{"cddb", 0.1},
                                         Generator{"movies", 0.03},
                                         Generator{"dbpedia", 0.02},
                                         Generator{"freebase", 0.02})),
    [](const ::testing::TestParamInfo<
        std::tuple<MethodId, Generator>>& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).name;
    });

TEST(DeterminismTest, GlobalBudgetStopsServeExactlyMidBatch) {
  // A bulk pull is capped at the budget left, so a global budget that
  // ends inside a refill batch still stops the stream at exactly that
  // comparison, at one and at four refill workers.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  const ProfileStore& store = dataset.value().store;
  constexpr std::uint64_t kBudget = 3001;
  constexpr std::uint64_t kSlice = 97;

  ResolverOptions options;
  options.method = MethodId::kPps;
  std::unique_ptr<ProgressiveEmitter> bare = MakeResolver(dataset.value(),
                                                          options);
  const std::vector<Comparison> serial =
      Drain(bare.get(), std::numeric_limits<std::size_t>::max());
  ASSERT_GT(serial.size(), kBudget);
  // The budget must end inside a batch, not on a boundary.
  PpsEmitter pps(store, BuildTokenWorkflowBlocks(store, {}));
  ComparisonList batch;
  std::uint64_t boundary = 0;
  while (boundary < kBudget && pps.ProduceBatch(batch)) {
    boundary += batch.remaining();
  }
  ASSERT_GT(boundary, kBudget);
  ASSERT_LT(boundary - batch.remaining(), kBudget);

  for (std::size_t num_threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(num_threads) + " threads");
    options.num_threads = num_threads;
    options.budget = kBudget;
    Result<std::unique_ptr<Resolver>> created =
        Resolver::Create(store, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    Resolver& resolver = *created.value();
    std::vector<Comparison> served;
    for (std::uint64_t full = 0; full < kBudget / kSlice; ++full) {
      ResolveResult result = resolver.Serve({.budget = kSlice,
                                             .max_batch = kSlice});
      ASSERT_EQ(result.comparisons.size(), kSlice);
      EXPECT_FALSE(result.budget_exhausted);
      EXPECT_FALSE(result.stream_exhausted);
      served.insert(served.end(), result.comparisons.begin(),
                    result.comparisons.end());
    }
    // The slice the budget runs out in is short and says why.
    ResolveResult last = resolver.Serve({.budget = kSlice,
                                         .max_batch = kSlice});
    EXPECT_EQ(last.comparisons.size(), kBudget % kSlice);
    EXPECT_TRUE(last.budget_exhausted);
    EXPECT_FALSE(last.stream_exhausted);
    EXPECT_EQ(last.outcome, ResolveOutcome::kServed);
    served.insert(served.end(), last.comparisons.begin(),
                  last.comparisons.end());
    EXPECT_EQ(resolver.emitted(), kBudget);
    ExpectBitIdentical(
        std::vector<Comparison>(serial.begin(), serial.begin() + kBudget),
        served);

    // Later requests draw nothing and still learn why.
    ResolveResult after = resolver.Serve({.budget = kSlice,
                                          .max_batch = kSlice});
    EXPECT_TRUE(after.comparisons.empty());
    EXPECT_TRUE(after.budget_exhausted);
    EXPECT_FALSE(after.stream_exhausted);
    EXPECT_EQ(resolver.emitted(), kBudget);
  }
}

TEST(DeterminismTest, WorkflowBlocksAreThreadCountInvariant) {
  // The workflow collection itself (keys, membership, order) must match
  // exactly, whatever the thread count — including counts that do not
  // divide the profile count evenly. Token blocking and filtering both
  // run on the threads; dbpedia is Clean-Clean.
  DatagenOptions small;
  small.scale = 0.02;
  for (const auto& [name, gen] :
       {std::pair<const char*, DatagenOptions>{"cora", {}},
        std::pair<const char*, DatagenOptions>{"dbpedia", small}}) {
    SCOPED_TRACE(name);
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    ASSERT_TRUE(dataset.ok());
    TokenWorkflowOptions sequential;
    BlockCollection reference =
        BuildTokenWorkflowBlocks(dataset.value().store, sequential);
    ASSERT_FALSE(reference.empty());
    for (std::size_t num_threads : {2u, 3u, 4u, 7u}) {
      TokenWorkflowOptions parallel;
      parallel.num_threads = num_threads;
      BlockCollection blocks =
          BuildTokenWorkflowBlocks(dataset.value().store, parallel);
      ASSERT_EQ(blocks.size(), reference.size())
          << num_threads << " threads";
      EXPECT_EQ(blocks.AggregateCardinality(),
                reference.AggregateCardinality());
      for (BlockId b = 0; b < blocks.size(); ++b) {
        ASSERT_EQ(blocks.key(b), reference.key(b));
        std::span<const ProfileId> members = blocks.members(b);
        std::span<const ProfileId> expected = reference.members(b);
        ASSERT_TRUE(std::equal(members.begin(), members.end(),
                               expected.begin(), expected.end()));
        ASSERT_EQ(blocks.source1(b).size(), reference.source1(b).size());
        ASSERT_EQ(blocks.Cardinality(b), reference.Cardinality(b));
      }
    }
  }
}

TEST(DeterminismTest, EvaluatorRecallIsRunInvariant) {
  // Timing fields vary between runs; effectiveness must not.
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  EvalOptions options;
  options.ecstar_max = 5.0;
  options.auc_at = {1.0, 5.0};
  ProgressiveEvaluator evaluator(dataset.value().truth, options);
  ResolverOptions config;
  config.method = MethodId::kPps;
  auto factory = [&] { return MakeResolver(dataset.value(), config); };
  RunResult a = evaluator.Run(factory);
  RunResult b = evaluator.Run(factory);
  EXPECT_EQ(a.emissions, b.emissions);
  EXPECT_EQ(a.matches_found, b.matches_found);
  EXPECT_EQ(a.auc_norm, b.auc_norm);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t k = 0; k < a.curve.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.curve[k].recall, b.curve[k].recall);
  }
}

}  // namespace
}  // namespace sper
