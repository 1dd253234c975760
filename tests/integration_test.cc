// End-to-end integration tests: generated dataset -> blocking workflow ->
// progressive methods -> evaluation. These check the qualitative claims
// the paper's evaluation rests on, at small scale so they stay fast.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "datagen/datagen.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "io/dataset_io.h"
#include "matching/match_function.h"

namespace sper {
namespace {

RunResult RunMethod(MethodId id, const DatasetBundle& dataset,
                    double ecstar_max = 10.0) {
  EvalOptions options;
  options.ecstar_max = ecstar_max;
  options.auc_at = {1.0, 5.0, 10.0};
  ProgressiveEvaluator evaluator(dataset.truth, options);
  ResolverOptions config;
  config.method = id;
  return evaluator.Run(
      [&] { return MakeResolver(dataset, config); });
}

TEST(IntegrationTest, AllMethodsFindMatchesOnRestaurant) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  for (MethodId id : StructuredMethodSet()) {
    RunResult result = RunMethod(id, dataset.value());
    EXPECT_GT(result.matches_found, 0u) << ToString(id);
  }
}

TEST(IntegrationTest, AdvancedMethodsBeatNaiveOnRestaurant) {
  // The paper's central claim (Sec. 7.1): the advanced schema-agnostic
  // methods outperform the naïve ones on early recall.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  const double naive = RunMethod(MethodId::kSaPsn, dataset.value())
                           .auc_norm[1];  // AUC*@5
  for (MethodId id : {MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPps}) {
    EXPECT_GT(RunMethod(id, dataset.value()).auc_norm[1], naive)
        << ToString(id);
  }
}

TEST(IntegrationTest, PpsIsNearIdealOnRestaurant) {
  // Paper: AUC*_PPS@1 = 0.93 on restaurant. Allow a generous band for the
  // synthetic substitute — the claim is "close to ideal".
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  RunResult pps = RunMethod(MethodId::kPps, dataset.value());
  EXPECT_GT(pps.auc_norm[0], 0.6);
}

TEST(IntegrationTest, AdvancedMethodsReachHighRecallOnCensus) {
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  for (MethodId id : {MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs,
                      MethodId::kPps}) {
    RunResult result = RunMethod(id, dataset.value());
    EXPECT_GT(result.final_recall, 0.5) << ToString(id);
  }
}

TEST(IntegrationTest, SimilarityMethodsDegradeOnUriData) {
  // Sec. 7.2 / Sec. 8: on RDF-style data the similarity principle breaks
  // (meaningless alphabetical order), while equality-based PBS stays
  // robust. Checked on a small freebase sample.
  DatagenOptions gen;
  gen.scale = 0.03;
  Result<DatasetBundle> dataset = GenerateDataset("freebase", gen);
  ASSERT_TRUE(dataset.ok());

  ResolverOptions config;
  config.gs_wmax = 20;
  EvalOptions options;
  options.ecstar_max = 5.0;
  options.auc_at = {1.0, 5.0};
  ProgressiveEvaluator evaluator(dataset.value().truth, options);

  config.method = MethodId::kPbs;
  RunResult pbs = evaluator.Run(
      [&] { return MakeResolver(dataset.value(), config); });
  config.method = MethodId::kLsPsn;
  RunResult ls = evaluator.Run(
      [&] { return MakeResolver(dataset.value(), config); });
  EXPECT_GT(pbs.auc_norm[1], ls.auc_norm[1]);
}

TEST(IntegrationTest, EvaluatorTimingFieldsArePopulated) {
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  JaccardMatch match(dataset.value().store);
  EvalOptions options;
  options.ecstar_max = 2.0;
  options.auc_at = {1.0};
  ProgressiveEvaluator evaluator(dataset.value().truth, options);
  ResolverOptions config;
  config.method = MethodId::kPps;
  RunResult result = evaluator.Run(
      [&] { return MakeResolver(dataset.value(), config); }, &match);
  EXPECT_GT(result.init_seconds, 0.0);
  EXPECT_GT(result.emission_seconds, 0.0);
  EXPECT_GT(result.match_seconds, 0.0);
  EXPECT_FALSE(result.time_recall.empty());
}

TEST(IntegrationTest, DatasetRoundTripsThroughCsv) {
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(
      WriteProfilesCsv(dataset.value().store, dir + "/census.csv").ok());
  ASSERT_TRUE(
      WriteGroundTruthCsv(dataset.value().truth, dir + "/census_gt.csv").ok());

  Result<ProfileStore> store =
      ReadProfilesCsv(dir + "/census.csv", ErType::kDirty);
  Result<GroundTruth> truth = ReadGroundTruthCsv(dir + "/census_gt.csv");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(store.value().size(), dataset.value().store.size());
  EXPECT_EQ(truth.value().num_matches(), dataset.value().truth.num_matches());
  // The reloaded task behaves identically: PBS finds the same matches.
  DatasetBundle reloaded{"census-reloaded", std::move(store).value(),
                         std::move(truth).value(), nullptr, ""};
  RunResult a = RunMethod(MethodId::kPbs, dataset.value(), 3.0);
  RunResult b = RunMethod(MethodId::kPbs, reloaded, 3.0);
  EXPECT_EQ(a.matches_found, b.matches_found);
}

TEST(IntegrationTest, ScaledDatasetKeepsProportions) {
  DatagenOptions half;
  half.scale = 0.5;
  Result<DatasetBundle> full = GenerateDataset("census");
  Result<DatasetBundle> scaled = GenerateDataset("census", half);
  ASSERT_TRUE(full.ok() && scaled.ok());
  EXPECT_NEAR(static_cast<double>(scaled.value().store.size()),
              0.5 * static_cast<double>(full.value().store.size()),
              0.05 * static_cast<double>(full.value().store.size()));
}

}  // namespace
}  // namespace sper
