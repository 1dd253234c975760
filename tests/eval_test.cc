// Tests for src/eval: the evaluator's recall/AUC accounting on emitters
// with known behaviour, the table printer, and the method registry.

#include <gtest/gtest.h>

#include <sstream>

#include "datagen/datagen.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/table.h"

namespace sper {
namespace {

/// Scripted emitter: plays back a fixed comparison sequence.
class ScriptedEmitter : public ProgressiveEmitter {
 public:
  explicit ScriptedEmitter(std::vector<Comparison> script)
      : script_(std::move(script)) {}
  std::optional<Comparison> Next() override {
    if (cursor_ >= script_.size()) return std::nullopt;
    return script_[cursor_++];
  }
  std::string_view name() const override { return "scripted"; }

 private:
  std::vector<Comparison> script_;
  std::size_t cursor_ = 0;
};

GroundTruth TwoMatches() {
  GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(2, 3);
  return truth;
}

TEST(EvaluatorTest, IdealEmitterScoresNormalizedAucOne) {
  GroundTruth truth = TwoMatches();
  EvalOptions options;
  options.ecstar_max = 3.0;
  options.auc_at = {1.0, 2.0};
  ProgressiveEvaluator evaluator(truth, options);

  RunResult result = evaluator.Run([] {
    return std::make_unique<ScriptedEmitter>(std::vector<Comparison>{
        Comparison(0, 1, 1.0), Comparison(2, 3, 0.9),
        Comparison(0, 2, 0.1), Comparison(1, 3, 0.1)});
  });
  EXPECT_EQ(result.emissions, 4u);
  EXPECT_EQ(result.matches_found, 2u);
  EXPECT_DOUBLE_EQ(result.final_recall, 1.0);
  ASSERT_EQ(result.auc_norm.size(), 2u);
  EXPECT_DOUBLE_EQ(result.auc_norm[0], 1.0);  // matches first = ideal
  EXPECT_DOUBLE_EQ(result.auc_norm[1], 1.0);
}

TEST(EvaluatorTest, WorstCaseEmitterScoresLow) {
  GroundTruth truth = TwoMatches();
  EvalOptions options;
  options.ecstar_max = 2.0;
  options.auc_at = {2.0};
  ProgressiveEvaluator evaluator(truth, options);

  // Matches arrive last: recall stays 0 for half the budget.
  RunResult result = evaluator.Run([] {
    return std::make_unique<ScriptedEmitter>(std::vector<Comparison>{
        Comparison(0, 2, 1.0), Comparison(1, 3, 0.9),
        Comparison(0, 1, 0.5), Comparison(2, 3, 0.4)});
  });
  ASSERT_EQ(result.auc_norm.size(), 1u);
  EXPECT_LT(result.auc_norm[0], 0.5);
  EXPECT_DOUBLE_EQ(result.final_recall, 1.0);
}

TEST(EvaluatorTest, RepeatedEmissionsCountOnceForRecall) {
  GroundTruth truth = TwoMatches();
  EvalOptions options;
  options.ecstar_max = 3.0;
  options.auc_at = {3.0};
  ProgressiveEvaluator evaluator(truth, options);
  RunResult result = evaluator.Run([] {
    return std::make_unique<ScriptedEmitter>(std::vector<Comparison>{
        Comparison(0, 1, 1.0), Comparison(0, 1, 1.0),
        Comparison(0, 1, 1.0)});
  });
  EXPECT_EQ(result.emissions, 3u);
  EXPECT_EQ(result.matches_found, 1u);
  EXPECT_DOUBLE_EQ(result.final_recall, 0.5);
}

TEST(EvaluatorTest, EcstarMaxCapsEmissions) {
  GroundTruth truth = TwoMatches();  // |D_P| = 2
  EvalOptions options;
  options.ecstar_max = 1.0;  // cap at 2 emissions
  options.auc_at = {1.0};
  ProgressiveEvaluator evaluator(truth, options);
  RunResult result = evaluator.Run([] {
    std::vector<Comparison> script(10, Comparison(5, 6, 0.1));
    return std::make_unique<ScriptedEmitter>(std::move(script));
  });
  EXPECT_EQ(result.emissions, 2u);
}

TEST(EvaluatorTest, EarlyExhaustionExtendsAucWithFlatRecall) {
  GroundTruth truth = TwoMatches();
  EvalOptions options;
  options.ecstar_max = 10.0;
  options.auc_at = {10.0};
  ProgressiveEvaluator evaluator(truth, options);
  // Finds one match then stops after 2 emissions.
  RunResult result = evaluator.Run([] {
    return std::make_unique<ScriptedEmitter>(std::vector<Comparison>{
        Comparison(0, 1, 1.0), Comparison(0, 3, 0.5)});
  });
  ASSERT_EQ(result.auc_norm.size(), 1u);
  // Recall plateaus at 0.5: AUC* must approach 0.5 (but stay below
  // because the first emission found only half the matches).
  EXPECT_GT(result.auc_norm[0], 0.4);
  EXPECT_LE(result.auc_norm[0], 0.52);
}

TEST(EvaluatorTest, MeanAucAveragesColumns) {
  RunResult a, b;
  a.auc_norm = {0.2, 0.4};
  b.auc_norm = {0.6, 0.8};
  const std::vector<double> mean = MeanAucAcrossRuns({a, b});
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_DOUBLE_EQ(mean[0], 0.4);
  EXPECT_DOUBLE_EQ(mean[1], 0.6);
}

// ------------------------------------------------------------- TextTable

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"method", "auc"});
  table.AddRow({"PPS", "0.93"});
  table.AddRow({"SA-PSN", "0.10"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("method"), std::string::npos);
  EXPECT_NE(text.find("SA-PSN"), std::string::npos);
  EXPECT_NE(text.find("0.93"), std::string::npos);
}

TEST(TextTableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(0.93456, 3), "0.935");
  EXPECT_EQ(FormatDouble(2.0, 2), "2.00");
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

// ------------------------------------------------------- Method registry

TEST(ExperimentTest, MethodNamesMatchThePaper) {
  EXPECT_EQ(ToString(MethodId::kPsn), "PSN");
  EXPECT_EQ(ToString(MethodId::kSaPsn), "SA-PSN");
  EXPECT_EQ(ToString(MethodId::kSaPsab), "SA-PSAB");
  EXPECT_EQ(ToString(MethodId::kLsPsn), "LS-PSN");
  EXPECT_EQ(ToString(MethodId::kGsPsn), "GS-PSN");
  EXPECT_EQ(ToString(MethodId::kPbs), "PBS");
  EXPECT_EQ(ToString(MethodId::kPps), "PPS");
}

TEST(ExperimentTest, MakeResolverBuildsEveryMethodOnCensus) {
  Result<DatasetBundle> dataset = GenerateDataset("census");
  ASSERT_TRUE(dataset.ok());
  ResolverOptions config;
  for (MethodId id : StructuredMethodSet()) {
    config.method = id;
    std::unique_ptr<ProgressiveEmitter> emitter =
        MakeResolver(dataset.value(), config);
    ASSERT_TRUE(emitter != nullptr) << ToString(id);
    EXPECT_EQ(emitter->name(), ToString(id));
    EXPECT_TRUE(emitter->Next().has_value()) << ToString(id);
  }
}

TEST(ExperimentTest, PsnIsUnavailableWithoutASchemaKey) {
  DatagenOptions options;
  options.scale = 0.01;
  Result<DatasetBundle> dataset = GenerateDataset("movies", options);
  ASSERT_TRUE(dataset.ok());
  ResolverOptions config;
  config.method = MethodId::kPsn;
  EXPECT_EQ(MakeResolver(dataset.value(), config), nullptr);
}

TEST(ExperimentTest, MethodSetsMatchTheFigures) {
  EXPECT_EQ(StructuredMethodSet().size(), 7u);    // Fig. 9
  EXPECT_EQ(HeterogeneousMethodSet().size(), 6u);  // Fig. 11 (no PSN)
}

}  // namespace
}  // namespace sper
