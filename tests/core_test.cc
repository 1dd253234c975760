// Unit tests for src/core: Status/Result, Profile, ProfileStore,
// GroundTruth, Comparison and the schema-agnostic tokenizer.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/comparison.h"
#include "core/ground_truth.h"
#include "core/profile.h"
#include "core/profile_store.h"
#include "core/status.h"
#include "core/tokenizer.h"

namespace sper {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad ratio");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad ratio");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad ratio");
}

TEST(StatusTest, EveryNamedConstructorSetsItsCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// --------------------------------------------------------------- Profile

TEST(ProfileTest, StoresAttributesInOrder) {
  Profile p;
  p.AddAttribute("name", "carl");
  p.AddAttribute("city", "ny");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.attributes()[0].name, "name");
  EXPECT_EQ(p.attributes()[1].value, "ny");
}

TEST(ProfileTest, ValueOfFindsFirstMatch) {
  Profile p;
  p.AddAttribute("starring", "alice");
  p.AddAttribute("starring", "bob");
  EXPECT_EQ(p.ValueOf("starring"), "alice");
  EXPECT_EQ(p.ValueOf("absent"), "");
}

TEST(ProfileTest, ConcatenatedValuesSkipsEmpty) {
  Profile p;
  p.AddAttribute("a", "x");
  p.AddAttribute("b", "");
  p.AddAttribute("c", "y z");
  EXPECT_EQ(p.ConcatenatedValues(), "x y z");
}

TEST(ProfileTest, IdIsInvalidUntilStored) {
  Profile p;
  EXPECT_EQ(p.id(), kInvalidProfile);
}

// ----------------------------------------------------------- ProfileStore

std::vector<Profile> MakeProfiles(std::size_t n) {
  std::vector<Profile> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].AddAttribute("v", "value" + std::to_string(i));
  }
  return out;
}

TEST(ProfileStoreTest, DirtyAssignsDenseIds) {
  ProfileStore store = ProfileStore::MakeDirty(MakeProfiles(3));
  EXPECT_EQ(store.er_type(), ErType::kDirty);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.split_index(), 3u);
  for (ProfileId i = 0; i < 3; ++i) {
    EXPECT_EQ(store.profile(i).id(), i);
    EXPECT_TRUE(store.InSource1(i));
  }
}

TEST(ProfileStoreTest, DirtyComparabilityExcludesSelfOnly) {
  ProfileStore store = ProfileStore::MakeDirty(MakeProfiles(3));
  EXPECT_FALSE(store.IsComparable(1, 1));
  EXPECT_TRUE(store.IsComparable(0, 1));
  EXPECT_TRUE(store.IsComparable(2, 0));
}

TEST(ProfileStoreTest, CleanCleanConcatenatesSources) {
  ProfileStore store =
      ProfileStore::MakeCleanClean(MakeProfiles(2), MakeProfiles(3));
  EXPECT_EQ(store.er_type(), ErType::kCleanClean);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.split_index(), 2u);
  EXPECT_EQ(store.source1_size(), 2u);
  EXPECT_EQ(store.source2_size(), 3u);
  EXPECT_TRUE(store.InSource1(0));
  EXPECT_FALSE(store.InSource1(2));
}

TEST(ProfileStoreTest, CleanCleanComparabilityIsCrossSourceOnly) {
  ProfileStore store =
      ProfileStore::MakeCleanClean(MakeProfiles(2), MakeProfiles(2));
  EXPECT_FALSE(store.IsComparable(0, 1));  // both source 1
  EXPECT_FALSE(store.IsComparable(2, 3));  // both source 2
  EXPECT_TRUE(store.IsComparable(0, 2));
  EXPECT_TRUE(store.IsComparable(3, 1));
  EXPECT_FALSE(store.IsComparable(2, 2));
}

TEST(ProfileStoreTest, MeanProfileSizeAveragesNameValuePairs) {
  std::vector<Profile> ps(2);
  ps[0].AddAttribute("a", "1");
  ps[1].AddAttribute("a", "1");
  ps[1].AddAttribute("b", "2");
  ps[1].AddAttribute("c", "3");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  EXPECT_DOUBLE_EQ(store.MeanProfileSize(), 2.0);
}

// ------------------------------------------------------------ Comparison

TEST(ComparisonTest, CanonicalizesPairOrder) {
  Comparison c(7, 3, 0.5);
  EXPECT_EQ(c.i, 3u);
  EXPECT_EQ(c.j, 7u);
}

TEST(ComparisonTest, PairKeyIsSymmetric) {
  EXPECT_EQ(PairKey(3, 7), PairKey(7, 3));
  EXPECT_NE(PairKey(3, 7), PairKey(3, 8));
}

TEST(ComparisonTest, ByWeightDescOrdersAndBreaksTiesDeterministically) {
  Comparison a(0, 1, 0.9);
  Comparison b(0, 2, 0.9);
  Comparison c(0, 3, 1.5);
  ByWeightDesc less;
  EXPECT_TRUE(less(c, a));   // higher weight first
  EXPECT_TRUE(less(a, b));   // tie -> smaller (i, j) first
  EXPECT_FALSE(less(b, a));
}

// ------------------------------------------------------------ GroundTruth

TEST(GroundTruthTest, AddMatchIsIdempotentAndIgnoresSelfPairs) {
  GroundTruth gt;
  gt.AddMatch(1, 2);
  gt.AddMatch(2, 1);
  gt.AddMatch(3, 3);
  EXPECT_EQ(gt.num_matches(), 1u);
  EXPECT_TRUE(gt.AreMatching(1, 2));
  EXPECT_TRUE(gt.AreMatching(2, 1));
  EXPECT_FALSE(gt.AreMatching(1, 3));
}

TEST(GroundTruthTest, FromClustersExpandsAllPairs) {
  GroundTruth gt = GroundTruth::FromClusters({{1, 2, 3}, {4, 5}, {6}});
  EXPECT_EQ(gt.num_matches(), 4u);  // C(3,2) + C(2,2) + 0
  EXPECT_TRUE(gt.AreMatching(1, 3));
  EXPECT_TRUE(gt.AreMatching(4, 5));
  EXPECT_FALSE(gt.AreMatching(3, 4));
}

TEST(GroundTruthTest, ValidateAcceptsConsistentDirtyTruth) {
  ProfileStore store = ProfileStore::MakeDirty(MakeProfiles(4));
  GroundTruth gt;
  gt.AddMatch(0, 3);
  EXPECT_TRUE(gt.Validate(store).ok());
}

TEST(GroundTruthTest, ValidateRejectsOutOfRangeIds) {
  ProfileStore store = ProfileStore::MakeDirty(MakeProfiles(2));
  GroundTruth gt;
  gt.AddMatch(0, 9);
  EXPECT_EQ(gt.Validate(store).code(), StatusCode::kInvalidArgument);
}

TEST(GroundTruthTest, ValidateRejectsSameSourcePairsForCleanClean) {
  ProfileStore store =
      ProfileStore::MakeCleanClean(MakeProfiles(2), MakeProfiles(2));
  GroundTruth gt;
  gt.AddMatch(0, 1);  // both in source 1
  EXPECT_EQ(gt.Validate(store).code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, SplitsOnNonAlphanumericAndLowercases) {
  EXPECT_EQ(TokenizeValue("Carl White, NY"),
            (std::vector<std::string>{"carl", "white", "ny"}));
}

TEST(TokenizerTest, UriDecomposesIntoSegments) {
  EXPECT_EQ(TokenizeValue("http://dbpedia.org/resource/Carl_White"),
            (std::vector<std::string>{"http", "dbpedia", "org", "resource",
                                      "carl", "white"}));
}

TEST(TokenizerTest, KeepsDigitsAndMixedTokens) {
  EXPECT_EQ(TokenizeValue("m.0abc12"),
            (std::vector<std::string>{"m", "0abc12"}));
}

TEST(TokenizerTest, MinTokenLengthDropsShortTokens) {
  TokenizerOptions options;
  options.min_token_length = 3;
  EXPECT_EQ(TokenizeValue("a bb ccc dddd", options),
            (std::vector<std::string>{"ccc", "dddd"}));
}

TEST(TokenizerTest, LowercaseCanBeDisabled) {
  TokenizerOptions options;
  options.lowercase = false;
  EXPECT_EQ(TokenizeValue("Ab cD", options),
            (std::vector<std::string>{"Ab", "cD"}));
}

TEST(TokenizerTest, EmptyValueYieldsNoTokens) {
  EXPECT_TRUE(TokenizeValue("").empty());
  EXPECT_TRUE(TokenizeValue("-- ,, !!").empty());
}

TEST(TokenizerTest, ZeroMinTokenLengthNeverEmitsEmptyTokens) {
  TokenizerOptions options;
  options.min_token_length = 0;
  EXPECT_EQ(TokenizeValue("a,", options), (std::vector<std::string>{"a"}));
  EXPECT_EQ(TokenizeValue(",a,,b.", options),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(TokenizeValue("", options).empty());
  EXPECT_TRUE(TokenizeValue("-- ,, !!", options).empty());
}

TEST(TokenizerTest, ByteTableIsAsciiAlphanumericAndLocaleFree) {
  // Every byte value, alone and inside a token: only [0-9A-Za-z] are token
  // bytes, A-Z fold to a-z only when lowercasing, and every byte >= 0x80
  // (e.g. a Latin-1 letter, which isalnum accepts in some locales) ends a
  // token.
  for (bool lowercase : {true, false}) {
    TokenizerOptions options;
    options.lowercase = lowercase;
    const std::array<char, 256>& table = TokenByteTable(lowercase);
    for (int c = 0; c < 256; ++c) {
      const bool digit = c >= '0' && c <= '9';
      const bool lower = c >= 'a' && c <= 'z';
      const bool upper = c >= 'A' && c <= 'Z';
      const char byte = static_cast<char>(c);
      const std::string value = std::string("x") + byte + "y";
      const std::vector<std::string> tokens = TokenizeValue(value, options);
      if (digit || lower || upper) {
        const char stored =
            upper && lowercase ? static_cast<char>(c - 'A' + 'a') : byte;
        EXPECT_EQ(table[c], stored) << c;
        EXPECT_EQ(tokens, (std::vector<std::string>{
                              std::string("x") + stored + "y"}))
            << c;
      } else {
        EXPECT_EQ(table[c], 0) << c;
        EXPECT_EQ(tokens, (std::vector<std::string>{"x", "y"})) << c;
      }
    }
  }
}

TEST(TokenizerTest, DistinctProfileTokensSortsAndDeduplicates) {
  Profile p;
  p.AddAttribute("name", "White Carl");
  p.AddAttribute("note", "white tailor");
  EXPECT_EQ(DistinctProfileTokens(p),
            (std::vector<std::string>{"carl", "tailor", "white"}));
}

}  // namespace
}  // namespace sper
