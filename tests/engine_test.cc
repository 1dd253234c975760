// ProgressiveEngine facade: one constructor wires profiles -> Token
// Blocking Workflow -> meta-blocking -> the chosen progressive method.
// These tests pin the facade's contract: equivalence with directly
// constructed emitters, the pay-as-you-go budget, method routing and the
// init diagnostics.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "progressive/pps.h"
#include "progressive/workflow.h"

namespace sper {
namespace {

DatasetBundle Restaurant() {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  EXPECT_TRUE(dataset.ok());
  return dataset.value();
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

TEST(ProgressiveEngineTest, MatchesDirectlyConstructedEmitter) {
  const DatasetBundle dataset = Restaurant();

  BlockCollection blocks = BuildTokenWorkflowBlocks(dataset.store);
  PpsEmitter direct(dataset.store, std::move(blocks));

  ResolverOptions options;
  options.method = MethodId::kPps;
  ProgressiveEngine engine(dataset.store, options);

  EXPECT_EQ(engine.name(), "PPS");
  const std::vector<Comparison> expected = Drain(&direct, 3000);
  const std::vector<Comparison> actual = Drain(&engine, 3000);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_TRUE(actual[k].SamePair(expected[k])) << "position " << k;
    EXPECT_EQ(actual[k].weight, expected[k].weight) << "position " << k;
  }
}

TEST(ProgressiveEngineTest, BudgetCapsEmission) {
  const DatasetBundle dataset = Restaurant();
  ResolverOptions options;
  options.method = MethodId::kPps;
  options.budget = 10;
  ProgressiveEngine engine(dataset.store, options);

  std::vector<Comparison> emitted = Drain(&engine, 1000000);
  EXPECT_EQ(emitted.size(), 10u);
  EXPECT_EQ(engine.emitted(), 10u);
  EXPECT_TRUE(engine.BudgetExhausted());
  EXPECT_FALSE(engine.Next().has_value());
}

TEST(ProgressiveEngineTest, ZeroBudgetMeansUnlimited) {
  const DatasetBundle dataset = Restaurant();
  ResolverOptions options;
  options.method = MethodId::kPps;
  ProgressiveEngine engine(dataset.store, options);
  std::vector<Comparison> emitted = Drain(&engine, 1000000);
  EXPECT_GT(emitted.size(), 10u);
  EXPECT_FALSE(engine.BudgetExhausted());
  EXPECT_EQ(engine.emitted(), emitted.size());
}

TEST(ProgressiveEngineTest, RoutesEveryScheduleBasedMethod) {
  const DatasetBundle dataset = Restaurant();
  struct Case {
    MethodId method;
    std::string_view name;
  };
  for (const Case& c :
       {Case{MethodId::kSaPsn, "SA-PSN"}, Case{MethodId::kSaPsab, "SA-PSAB"},
        Case{MethodId::kLsPsn, "LS-PSN"}, Case{MethodId::kGsPsn, "GS-PSN"},
        Case{MethodId::kPbs, "PBS"}, Case{MethodId::kPps, "PPS"}}) {
    ResolverOptions options;
    options.method = c.method;
    ProgressiveEngine engine(dataset.store, options);
    EXPECT_EQ(engine.name(), c.name);
    EXPECT_TRUE(engine.Next().has_value()) << c.name;
  }
}

TEST(ProgressiveEngineTest, RunsSchemaBasedPsnWithKey) {
  const DatasetBundle dataset = Restaurant();
  ASSERT_TRUE(dataset.psn_key != nullptr);
  ResolverOptions options;
  options.method = MethodId::kPsn;
  options.schema_key = dataset.psn_key;
  ProgressiveEngine engine(dataset.store, options);
  EXPECT_EQ(engine.name(), "PSN");
  EXPECT_TRUE(engine.Next().has_value());
}

TEST(ProgressiveEngineTest, InitStatsReportWorkflowCollection) {
  const DatasetBundle dataset = Restaurant();
  ResolverOptions options;
  options.method = MethodId::kPps;
  ProgressiveEngine engine(dataset.store, options);
  const InitStats& stats = engine.init_stats();
  EXPECT_GT(stats.num_blocks, 0u);
  EXPECT_GT(stats.aggregate_cardinality, 0u);
  EXPECT_GE(stats.init_seconds, 0.0);

  BlockCollection blocks = BuildTokenWorkflowBlocks(dataset.store);
  EXPECT_EQ(stats.num_blocks, blocks.size());
  EXPECT_EQ(stats.aggregate_cardinality, blocks.AggregateCardinality());
}

TEST(MethodIdTest, ParseRoundTripsEveryAcronym) {
  for (MethodId id :
       {MethodId::kPsn, MethodId::kSaPsn, MethodId::kSaPsab,
        MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs, MethodId::kPps}) {
    std::optional<MethodId> parsed = ParseMethodId(ToString(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(ParseMethodId("NOPE").has_value());
}

TEST(MethodIdTest, ParseIsCaseInsensitiveAndAcceptsUnderscores) {
  EXPECT_EQ(ParseMethodId("pps"), MethodId::kPps);
  EXPECT_EQ(ParseMethodId("Pbs"), MethodId::kPbs);
  EXPECT_EQ(ParseMethodId("sa_psn"), MethodId::kSaPsn);
  EXPECT_EQ(ParseMethodId("SA_PSAB"), MethodId::kSaPsab);
  EXPECT_EQ(ParseMethodId("gs-psn"), MethodId::kGsPsn);
  EXPECT_EQ(ParseMethodId("ls_PSN"), MethodId::kLsPsn);
  EXPECT_FALSE(ParseMethodId("pp s").has_value());
  EXPECT_FALSE(ParseMethodId("").has_value());
}

}  // namespace
}  // namespace sper
