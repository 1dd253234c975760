// Tests for src/datagen: every synthetic dataset must reproduce the
// Table 2 statistics it models (at its documented scale), be internally
// consistent, and be a deterministic function of its seed.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tokenizer.h"
#include "datagen/corruption.h"
#include "datagen/datagen.h"
#include "datagen/dictionaries.h"
#include "datagen/generator_util.h"
#include "datagen/rng.h"
#include "datagen/soundex.h"

namespace sper {
namespace {

std::size_t CountAttributeNames(const ProfileStore& store) {
  std::unordered_set<std::string> names;
  for (const Profile& p : store.profiles()) {
    for (const Attribute& a : p.attributes()) names.insert(a.name);
  }
  return names.size();
}

// ---------------------------------------------------------------- Soundex

TEST(SoundexTest, ClassicCodes) {
  EXPECT_EQ(Soundex("Robert"), "R163");
  EXPECT_EQ(Soundex("Rupert"), "R163");
  EXPECT_EQ(Soundex("Ashcraft"), "A261");  // h/w transparency
  EXPECT_EQ(Soundex("Tymczak"), "T522");
  EXPECT_EQ(Soundex("Pfister"), "P236");
  EXPECT_EQ(Soundex("Honeyman"), "H555");
}

TEST(SoundexTest, SimilarSurnamesShareCodes) {
  EXPECT_EQ(Soundex("white"), Soundex("whyte"));
  EXPECT_EQ(Soundex("smith"), Soundex("smyth"));
}

TEST(SoundexTest, EmptyAndNonAlphabetic) {
  EXPECT_EQ(Soundex(""), "");
  EXPECT_EQ(Soundex("123"), "");
  EXPECT_EQ(Soundex("o'brien"), Soundex("obrien"));
}

// ------------------------------------------------------------- Corruption

TEST(CorruptionTest, RandomTypoChangesAtMostOneEditStep) {
  Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    const std::string original = "tailor";
    const std::string typo = RandomTypo(rng, original);
    EXPECT_LE(typo.size() + 1, original.size() + 2);
    EXPECT_GE(typo.size() + 1, original.size());
  }
}

TEST(CorruptionTest, MaybeTypoWithZeroRateIsIdentity) {
  Rng rng(11);
  EXPECT_EQ(MaybeTypo(rng, "stable", 0.0), "stable");
}

TEST(CorruptionTest, AbbreviateKeepsFirstLetter) {
  EXPECT_EQ(Abbreviate("john"), "j.");
  EXPECT_EQ(Abbreviate(""), "");
}

TEST(CorruptionTest, TokenNoiseDropsAtMostOneToken) {
  Rng rng(13);
  TokenNoiseOptions options;
  options.drop_rate = 1.0;
  const std::string out = TokenNoise(rng, "one two three", options);
  // Exactly one token dropped.
  EXPECT_EQ(TokenizeValue(out).size(), 2u);
}

// ----------------------------------------------------------- Dictionaries

TEST(DictionariesTest, PoolsAreNonEmptyAndLowercase) {
  for (const auto* pool :
       {&FirstNames(), &Surnames(), &Cities(), &States(), &Cuisines(),
        &StreetWords(), &CommonWords(), &Genres(), &VenueWords()}) {
    ASSERT_FALSE(pool->empty());
    for (const std::string& w : *pool) {
      for (char c : w) {
        EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ') << w;
      }
    }
  }
}

TEST(DictionariesTest, SyllablePoolIsDistinctAndDeterministic) {
  Rng rng_a(21), rng_b(21);
  const auto pool_a = SyllablePool(rng_a, 500);
  const auto pool_b = SyllablePool(rng_b, 500);
  EXPECT_EQ(pool_a, pool_b);
  std::set<std::string> distinct(pool_a.begin(), pool_a.end());
  EXPECT_EQ(distinct.size(), pool_a.size());
}

// ---------------------------------------------------------- Cluster plans

TEST(ClusterPlanTest, CountsProfilesAndPairs) {
  ClusterPlan plan;
  plan.clusters_of_size = {{2, 10}, {3, 4}};
  plan.singletons = 8;
  EXPECT_EQ(plan.TotalProfiles(), 10u * 2 + 4u * 3 + 8);
  EXPECT_EQ(plan.TotalPairs(), 10u * 1 + 4u * 3);
}

TEST(ClusterPlanTest, ScalingRoundsCounts) {
  ClusterPlan plan;
  plan.clusters_of_size = {{2, 10}};
  plan.singletons = 100;
  ClusterPlan half = plan.Scaled(0.5);
  EXPECT_EQ(half.singletons, 50u);
  EXPECT_EQ(half.clusters_of_size[0].second, 5u);
}

// ------------------------------------------------- Table 2: structured

struct Table2Row {
  const char* name;
  std::size_t profiles;
  std::size_t attributes;
  std::size_t matches;
  double mean_nv;
};

class StructuredDatasetTest : public ::testing::TestWithParam<Table2Row> {};

TEST_P(StructuredDatasetTest, MatchesTable2Statistics) {
  const Table2Row& row = GetParam();
  Result<DatasetBundle> result = GenerateDataset(row.name);
  ASSERT_TRUE(result.ok());
  const DatasetBundle& ds = result.value();

  EXPECT_EQ(ds.store.er_type(), ErType::kDirty);
  // Within 2% of the paper's profile count and 15% of its match count.
  EXPECT_NEAR(static_cast<double>(ds.store.size()),
              static_cast<double>(row.profiles), 0.02 * row.profiles);
  EXPECT_NEAR(static_cast<double>(ds.truth.num_matches()),
              static_cast<double>(row.matches), 0.15 * row.matches);
  // Attribute-name count is exact-ish for the fixed schemas.
  EXPECT_NEAR(static_cast<double>(CountAttributeNames(ds.store)),
              static_cast<double>(row.attributes), 0.2 * row.attributes + 1);
  // Mean name-value pairs within 15%.
  EXPECT_NEAR(ds.store.MeanProfileSize(), row.mean_nv, 0.15 * row.mean_nv);
}

TEST_P(StructuredDatasetTest, GroundTruthIsConsistent) {
  Result<DatasetBundle> result = GenerateDataset(GetParam().name);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().truth.Validate(result.value().store).ok());
}

TEST_P(StructuredDatasetTest, HasALiteraturePsnKey) {
  Result<DatasetBundle> result = GenerateDataset(GetParam().name);
  ASSERT_TRUE(result.ok());
  const DatasetBundle& ds = result.value();
  ASSERT_TRUE(ds.psn_key != nullptr);
  // The key must be non-empty for the vast majority of profiles.
  std::size_t non_empty = 0;
  for (const Profile& p : ds.store.profiles()) {
    if (!ds.psn_key(p).empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, ds.store.size() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, StructuredDatasetTest,
    ::testing::Values(Table2Row{"census", 841, 5, 344, 4.65},
                      Table2Row{"restaurant", 864, 5, 112, 5.00},
                      Table2Row{"cora", 1300, 12, 17000, 5.53},
                      Table2Row{"cddb", 9763, 106, 300, 18.75}),
    [](const ::testing::TestParamInfo<Table2Row>& info) {
      return info.param.name;
    });

// ---------------------------------------------- Table 2: heterogeneous

struct HeterogeneousRow {
  const char* name;
  std::size_t source1;  // at the documented reduced scale
  std::size_t source2;
  std::size_t matches;
  double mean_nv_min;
  double mean_nv_max;
};

class HeterogeneousDatasetTest
    : public ::testing::TestWithParam<HeterogeneousRow> {};

TEST_P(HeterogeneousDatasetTest, MatchesDocumentedScale) {
  const HeterogeneousRow& row = GetParam();
  // Generated at 10% scale to keep the test fast; counts scale linearly.
  DatagenOptions options;
  options.scale = 0.1;
  Result<DatasetBundle> result = GenerateDataset(row.name, options);
  ASSERT_TRUE(result.ok());
  const DatasetBundle& ds = result.value();

  EXPECT_EQ(ds.store.er_type(), ErType::kCleanClean);
  EXPECT_NEAR(static_cast<double>(ds.store.source1_size()),
              0.1 * static_cast<double>(row.source1),
              0.03 * row.source1 + 10);
  EXPECT_NEAR(static_cast<double>(ds.store.source2_size()),
              0.1 * static_cast<double>(row.source2),
              0.03 * row.source2 + 10);
  EXPECT_NEAR(static_cast<double>(ds.truth.num_matches()),
              0.1 * static_cast<double>(row.matches), 0.03 * row.matches + 10);
  EXPECT_GE(ds.store.MeanProfileSize(), row.mean_nv_min);
  EXPECT_LE(ds.store.MeanProfileSize(), row.mean_nv_max);
  EXPECT_TRUE(ds.psn_key == nullptr);
}

TEST_P(HeterogeneousDatasetTest, GroundTruthIsCrossSource) {
  DatagenOptions options;
  options.scale = 0.05;
  Result<DatasetBundle> result = GenerateDataset(GetParam().name, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().truth.Validate(result.value().store).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Table2, HeterogeneousDatasetTest,
    ::testing::Values(
        HeterogeneousRow{"movies", 27615, 23182, 22863, 5.0, 9.5},
        HeterogeneousRow{"dbpedia", 60000, 110000, 45000, 12.0, 19.0},
        HeterogeneousRow{"freebase", 84000, 74000, 30000, 18.0, 30.0}),
    [](const ::testing::TestParamInfo<HeterogeneousRow>& info) {
      return info.param.name;
    });

// ------------------------------------------------------------ properties

TEST(DatagenTest, UnknownNameIsNotFound) {
  Result<DatasetBundle> result = GenerateDataset("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatagenTest, ScaleMustBeFiniteAndPositive) {
  const std::vector<std::string>& structured = StructuredDatasetNames();
  const std::vector<std::string>& heterogeneous = HeterogeneousDatasetNames();
  std::vector<std::string> names(structured.begin(), structured.end());
  names.insert(names.end(), heterogeneous.begin(), heterogeneous.end());
  ASSERT_EQ(names.size(), 7u);
  for (const std::string& name : names) {
    for (double scale : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
      DatagenOptions options;
      options.scale = scale;
      Result<DatasetBundle> result = GenerateDataset(name, options);
      ASSERT_FALSE(result.ok()) << name << " at scale " << scale;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("scale"), std::string::npos);
    }
  }
}

TEST(DatagenTest, GenerationIsDeterministicPerSeed) {
  Result<DatasetBundle> a = GenerateDataset("census");
  Result<DatasetBundle> b = GenerateDataset("census");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().store.size(), b.value().store.size());
  for (ProfileId i = 0; i < a.value().store.size(); ++i) {
    EXPECT_EQ(a.value().store.profile(i).attributes(),
              b.value().store.profile(i).attributes());
  }
  EXPECT_EQ(a.value().truth.pairs(), b.value().truth.pairs());
}

TEST(DatagenTest, DifferentSeedsDiffer) {
  DatagenOptions other;
  other.seed = 99;
  Result<DatasetBundle> a = GenerateDataset("census");
  Result<DatasetBundle> b = GenerateDataset("census", other);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_difference =
      a.value().store.size() != b.value().store.size();
  if (!any_difference) {
    for (ProfileId i = 0; i < a.value().store.size(); ++i) {
      if (!(a.value().store.profile(i).attributes() ==
            b.value().store.profile(i).attributes())) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(DatagenTest, DbpediaSnapshotsShareAboutAQuarterOfPairs) {
  DatagenOptions options;
  options.scale = 0.05;
  Result<DatasetBundle> result = GenerateDataset("dbpedia", options);
  ASSERT_TRUE(result.ok());
  const DatasetBundle& ds = result.value();

  // Over the matched pairs, measure |shared nv pairs| / |smaller profile|.
  double ratio_sum = 0.0;
  std::size_t counted = 0;
  for (std::uint64_t key : ds.truth.pairs()) {
    const Profile& a = ds.store.profile(static_cast<ProfileId>(key >> 32));
    const Profile& b =
        ds.store.profile(static_cast<ProfileId>(key & 0xffffffffu));
    std::set<std::pair<std::string, std::string>> pa;
    for (const Attribute& attr : a.attributes()) {
      pa.emplace(attr.name, attr.value);
    }
    std::size_t shared = 0;
    for (const Attribute& attr : b.attributes()) {
      shared += pa.count({attr.name, attr.value});
    }
    ratio_sum += static_cast<double>(shared) /
                 static_cast<double>(std::min(a.size(), b.size()));
    if (++counted == 500) break;
  }
  const double mean_ratio = ratio_sum / static_cast<double>(counted);
  // The paper: the snapshots "share only 25% of the name-value pairs".
  EXPECT_GT(mean_ratio, 0.10);
  EXPECT_LT(mean_ratio, 0.45);
}

TEST(DatagenTest, FreebaseValuesAreUriShaped) {
  DatagenOptions options;
  options.scale = 0.02;
  Result<DatasetBundle> result = GenerateDataset("freebase", options);
  ASSERT_TRUE(result.ok());
  const DatasetBundle& ds = result.value();
  // Source-1 profiles must be dominated by URI values with opaque mids.
  std::size_t uri_values = 0, total_values = 0;
  for (ProfileId i = 0; i < ds.store.split_index(); ++i) {
    for (const Attribute& a : ds.store.profile(i).attributes()) {
      ++total_values;
      if (a.value.rfind("http://", 0) == 0) ++uri_values;
    }
  }
  EXPECT_GT(static_cast<double>(uri_values) /
                static_cast<double>(total_values),
            0.7);
}

}  // namespace
}  // namespace sper
