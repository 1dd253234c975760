// Determinism guarantees: the library documents that every run is
// reproducible bit-for-bit given the seeds (DESIGN.md §3). These tests pin
// that contract for every progressive method and for the evaluation layer:
// same store + same options => identical emission sequences, including
// weights.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
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

// The parallel initialization paths (block filtering, edge weighting)
// promise bit-identical results at every thread count. Drain the full
// emission sequence at 1 and 4 threads and require exact equality —
// weights compared bit-for-bit, not approximately.
class ThreadCountInvarianceTest : public ::testing::TestWithParam<MethodId> {
};

TEST_P(ThreadCountInvarianceTest, OneAndFourThreadsEmitIdenticalSequences) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  auto run = [&](std::size_t num_threads) {
    ResolverOptions options;
    options.method = GetParam();
    options.num_threads = num_threads;
    ProgressiveEngine engine(dataset.value().store, options);
    return Drain(&engine, 1000000);
  };
  const std::vector<Comparison> one = run(1);
  const std::vector<Comparison> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  ASSERT_GT(one.size(), 0u);
  for (std::size_t k = 0; k < one.size(); ++k) {
    ASSERT_EQ(one[k].i, four[k].i) << "position " << k;
    ASSERT_EQ(one[k].j, four[k].j) << "position " << k;
    // Bit-identical, not EXPECT_DOUBLE_EQ: the parallel merge must not
    // reorder any floating-point accumulation.
    ASSERT_EQ(one[k].weight, four[k].weight) << "position " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ParallelMethods, ThreadCountInvarianceTest,
                         ::testing::Values(MethodId::kPbs, MethodId::kPps),
                         [](const ::testing::TestParamInfo<MethodId>& info) {
                           return std::string(ToString(info.param));
                         });

TEST(DeterminismTest, WorkflowBlocksAreThreadCountInvariant) {
  // The workflow collection itself (keys, membership, order) must match
  // exactly, whatever the thread count — including counts that do not
  // divide the profile count evenly.
  Result<DatasetBundle> dataset = GenerateDataset("cora");
  ASSERT_TRUE(dataset.ok());
  TokenWorkflowOptions sequential;
  BlockCollection reference =
      BuildTokenWorkflowBlocks(dataset.value().store, sequential);
  for (std::size_t num_threads : {2u, 3u, 4u, 7u}) {
    TokenWorkflowOptions parallel;
    parallel.num_threads = num_threads;
    BlockCollection blocks =
        BuildTokenWorkflowBlocks(dataset.value().store, parallel);
    ASSERT_EQ(blocks.size(), reference.size()) << num_threads << " threads";
    EXPECT_EQ(blocks.AggregateCardinality(),
              reference.AggregateCardinality());
    for (BlockId b = 0; b < blocks.size(); ++b) {
      ASSERT_EQ(blocks.key(b), reference.key(b));
      std::span<const ProfileId> members = blocks.members(b);
      std::span<const ProfileId> expected = reference.members(b);
      ASSERT_TRUE(std::equal(members.begin(), members.end(),
                             expected.begin(), expected.end()));
    }
  }
}

TEST(DeterminismTest, EjsDegreePassIsThreadCountInvariant) {
  // kEjs is the one scheme whose initialization runs a full-graph degree
  // pass; cover it separately from the ARCS-default engine tests.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  auto run = [&](std::size_t num_threads) {
    ResolverOptions options;
    options.method = MethodId::kPps;
    options.scheme = WeightingScheme::kEjs;
    options.num_threads = num_threads;
    ProgressiveEngine engine(dataset.value().store, options);
    return Drain(&engine, 5000);
  };
  const std::vector<Comparison> one = run(1);
  const std::vector<Comparison> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t k = 0; k < one.size(); ++k) {
    ASSERT_TRUE(one[k].SamePair(four[k])) << "position " << k;
    ASSERT_EQ(one[k].weight, four[k].weight) << "position " << k;
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
