// Unit tests for src/blocking: blocks, token/standard blocking, purging,
// filtering, scheduling, ProfileIndex (incl. LeCoBI) and the suffix forest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/block_scheduling.h"
#include "blocking/profile_index.h"
#include "blocking/standard_blocking.h"
#include "blocking/suffix_forest.h"
#include "blocking/token_blocking.h"
#include "datagen/datagen.h"
#include "progressive/workflow.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  // p0 {red, blue}; p1 {red, green}; p2 {blue}; p3 {red}.
  std::vector<Profile> ps(4);
  ps[0].AddAttribute("v", "red blue");
  ps[1].AddAttribute("v", "red green");
  ps[2].AddAttribute("v", "blue");
  ps[3].AddAttribute("v", "red");
  return ProfileStore::MakeDirty(std::move(ps));
}

ProfileStore CleanCleanStore() {
  // Source 1: p0 {red}, p1 {blue}; source 2: p2 {red blue}, p3 {green}.
  std::vector<Profile> s1(2), s2(2);
  s1[0].AddAttribute("v", "red");
  s1[1].AddAttribute("v", "blue");
  s2[0].AddAttribute("v", "red blue");
  s2[1].AddAttribute("v", "green");
  return ProfileStore::MakeCleanClean(std::move(s1), std::move(s2));
}

std::vector<ProfileId> Members(const BlockCollection& blocks, BlockId id) {
  std::span<const ProfileId> span = blocks.members(id);
  return std::vector<ProfileId>(span.begin(), span.end());
}

std::map<std::string, std::vector<ProfileId>> AsMap(
    const BlockCollection& blocks) {
  std::map<std::string, std::vector<ProfileId>> out;
  for (BlockId id = 0; id < blocks.size(); ++id) {
    out[std::string(blocks.key(id))] = Members(blocks, id);
  }
  return out;
}

// -------------------------------------------------------- BlockCollection

TEST(BlockCollectionTest, DirtyCardinalityIsChoose2) {
  BlockCollection bc(ErType::kDirty, 10);
  const BlockId id = bc.Add("k", {1, 2, 3, 4});
  EXPECT_EQ(bc.Cardinality(id), 6u);  // C(4,2), paper's ||b_tailor||
  EXPECT_EQ(bc.AggregateCardinality(), 6u);
}

TEST(BlockCollectionTest, CleanCleanCardinalityIsCrossProduct) {
  BlockCollection bc(ErType::kCleanClean, /*split_index=*/2);
  const BlockId id = bc.Add("k", {0, 1, 2, 3, 4});  // 2 x 3
  EXPECT_EQ(bc.Cardinality(id), 6u);
}

TEST(BlockCollectionTest, SingleSourceBlockHasZeroCardinality) {
  BlockCollection bc(ErType::kCleanClean, 2);
  EXPECT_EQ(bc.Add("a", {0, 1}), 0u);
  EXPECT_EQ(bc.Cardinality(0), 0u);
  bc.Add("b", {2, 3});
  EXPECT_EQ(bc.Cardinality(1), 0u);
}

TEST(BlockCollectionTest, ForEachComparisonDirtyVisitsAllPairs) {
  BlockCollection bc(ErType::kDirty, 10);
  bc.Add("k", {1, 3, 5});
  std::vector<std::pair<ProfileId, ProfileId>> pairs;
  bc.ForEachComparison(0, [&](ProfileId a, ProfileId b) {
    pairs.emplace_back(a, b);
  });
  EXPECT_EQ(pairs, (std::vector<std::pair<ProfileId, ProfileId>>{
                       {1, 3}, {1, 5}, {3, 5}}));
}

TEST(BlockCollectionTest, ForEachComparisonCleanCleanCrossesSources) {
  BlockCollection bc(ErType::kCleanClean, 2);
  bc.Add("k", {0, 1, 2, 3});
  std::vector<std::pair<ProfileId, ProfileId>> pairs;
  bc.ForEachComparison(0, [&](ProfileId a, ProfileId b) {
    pairs.emplace_back(a, b);
  });
  EXPECT_EQ(pairs, (std::vector<std::pair<ProfileId, ProfileId>>{
                       {0, 2}, {0, 3}, {1, 2}, {1, 3}}));
}

TEST(BlockCollectionTest, MeanBlockSize) {
  BlockCollection bc(ErType::kDirty, 10);
  bc.Add("a", {1, 2});
  bc.Add("b", {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(bc.MeanBlockSize(), 3.0);
}

// --------------------------------------------------------- TokenBlocking

TEST(TokenBlockingTest, DirtyBuildsOneBlockPerSharedToken) {
  BlockCollection blocks = TokenBlocking(DirtyStore());
  auto map = AsMap(blocks);
  // green appears in one profile only -> no block.
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map["red"], (std::vector<ProfileId>{0, 1, 3}));
  EXPECT_EQ(map["blue"], (std::vector<ProfileId>{0, 2}));
}

TEST(TokenBlockingTest, CleanCleanKeepsOnlyCrossSourceBlocks) {
  BlockCollection blocks = TokenBlocking(CleanCleanStore());
  auto map = AsMap(blocks);
  // green: only in source 2 -> dropped.
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map["red"], (std::vector<ProfileId>{0, 2}));
  EXPECT_EQ(map["blue"], (std::vector<ProfileId>{1, 2}));
}

TEST(TokenBlockingTest, NoBlockHasAnEmptyKey) {
  // With min_token_length 0, a value that ends in a separator, or is
  // empty, must not yield the token "" (one block "" holding them all).
  std::vector<Profile> ps(3);
  ps[0].AddAttribute("v", "carl,");
  ps[1].AddAttribute("v", "white.");
  ps[2].AddAttribute("v", "");
  TokenBlockingOptions options;
  options.tokenizer.min_token_length = 0;
  BlockCollection blocks =
      TokenBlocking(ProfileStore::MakeDirty(std::move(ps)), options);
  for (BlockId id = 0; id < blocks.size(); ++id) {
    EXPECT_FALSE(blocks.key(id).empty());
  }
  EXPECT_TRUE(blocks.empty());
}

TEST(TokenBlockingTest, BlockOrderIsDeterministic) {
  BlockCollection a = TokenBlocking(DirtyStore());
  BlockCollection b = TokenBlocking(DirtyStore());
  ASSERT_EQ(a.size(), b.size());
  for (BlockId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.key(id), b.key(id));
    EXPECT_EQ(Members(a, id), Members(b, id));
  }
}

// ------------------------------------------------------ StandardBlocking

TEST(StandardBlockingTest, GroupsByKeyFunction) {
  ProfileStore store = DirtyStore();
  BlockCollection blocks = StandardBlocking(store, [](const Profile& p) {
    // First letter of the value.
    return std::string(p.ValueOf("v").substr(0, 1));
  });
  auto map = AsMap(blocks);
  // keys: p0 "r", p1 "r", p2 "b", p3 "r" -> only "r" yields comparisons.
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map["r"], (std::vector<ProfileId>{0, 1, 3}));
}

TEST(StandardBlockingTest, EmptyKeysAreSkipped) {
  std::vector<Profile> ps(3);
  ps[0].AddAttribute("k", "x");
  ps[1].AddAttribute("k", "x");
  ps[2].AddAttribute("other", "y");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  BlockCollection blocks = StandardBlocking(
      store, [](const Profile& p) { return std::string(p.ValueOf("k")); });
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(Members(blocks, 0), (std::vector<ProfileId>{0, 1}));
}

// ---------------------------------------------------------- BlockPurging

TEST(BlockPurgingTest, DropsBlocksAboveTheRatio) {
  BlockCollection bc(ErType::kDirty, 100);
  bc.Add("small", {1, 2});
  bc.Add("big", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  // 10% of 100 profiles = 10; the 11-profile block goes.
  BlockCollection purged = BlockPurging(bc, 100);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged.key(0), "small");
}

TEST(BlockPurgingTest, BoundaryBlockSurvives) {
  BlockCollection bc(ErType::kDirty, 100);
  std::vector<ProfileId> ten(10);
  for (ProfileId i = 0; i < 10; ++i) ten[i] = i;
  bc.Add("exactly10", ten);
  // |b| == 0.1 * |P| is NOT "more than 10%": kept.
  EXPECT_EQ(BlockPurging(bc, 100).size(), 1u);
}

// --------------------------------------------------------- BlockFiltering

TEST(BlockFilteringTest, RemovesProfilesFromTheirLargestBlocks) {
  // p1 appears in 5 blocks of growing size; ratio 0.8 keeps ceil(4) = 4.
  BlockCollection bc(ErType::kDirty, 100);
  bc.Add("b0", {1, 2});
  bc.Add("b1", {1, 3, 4});
  bc.Add("b2", {1, 2, 3, 4});
  bc.Add("b3", {1, 2, 3, 4, 5});
  bc.Add("b4", {1, 2, 3, 4, 5, 6});
  BlockCollection filtered = BlockFiltering(bc);
  auto map = AsMap(filtered);
  // p1's largest block is b4: it must not contain p1 anymore.
  ASSERT_TRUE(map.count("b4"));
  EXPECT_EQ(std::count(map["b4"].begin(), map["b4"].end(), 1), 0);
  // p1 stays in its four smallest blocks.
  EXPECT_EQ(std::count(map["b0"].begin(), map["b0"].end(), 1), 1);
  EXPECT_EQ(std::count(map["b2"].begin(), map["b2"].end(), 1), 1);
}

TEST(BlockFilteringTest, DropsBlocksLeftWithoutComparisons) {
  BlockCollection bc(ErType::kDirty, 100);
  bc.Add("tiny", {1, 2});
  bc.Add("big", {1, 2, 3});
  // ratio 0.5: each of p1, p2 keeps only its smallest block ("tiny"),
  // p3 keeps "big". "big" retains one profile -> dropped.
  BlockFilteringOptions options;
  options.ratio = 0.5;
  BlockCollection filtered = BlockFiltering(bc, options);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered.key(0), "tiny");
}

TEST(BlockFilteringTest, RatioOneIsANoOp) {
  BlockCollection bc = TokenBlocking(DirtyStore());
  BlockFilteringOptions options;
  options.ratio = 1.0;
  BlockCollection filtered = BlockFiltering(bc, options);
  ASSERT_EQ(filtered.size(), bc.size());
  for (BlockId id = 0; id < bc.size(); ++id) {
    EXPECT_EQ(Members(filtered, id), Members(bc, id));
  }
}

// -------------------------------------------------------- BlockScheduling

TEST(BlockSchedulingTest, OrdersByCardinalityThenKey) {
  BlockCollection bc(ErType::kDirty, 100);
  bc.Add("zeta", {1, 2});        // 1 comparison
  bc.Add("mid", {1, 2, 3});      // 3 comparisons
  bc.Add("alpha", {4, 5});       // 1 comparison
  BlockCollection scheduled = BlockScheduling(bc);
  ASSERT_EQ(scheduled.size(), 3u);
  EXPECT_EQ(scheduled.key(0), "alpha");  // tie broken by key
  EXPECT_EQ(scheduled.key(1), "zeta");
  EXPECT_EQ(scheduled.key(2), "mid");
  EXPECT_TRUE(scheduled.Cardinality(0) <= scheduled.Cardinality(1));
  EXPECT_TRUE(scheduled.Cardinality(1) <= scheduled.Cardinality(2));
}

// ----------------------------------------------------------- ProfileIndex

TEST(ProfileIndexTest, ListsBlocksAscendingPerProfile) {
  BlockCollection blocks = TokenBlocking(DirtyStore());
  ProfileIndex index(blocks, 4);
  // Blocks sorted by key: blue=0 {0,2}, red=1 {0,1,3}.
  EXPECT_EQ(index.NumBlocksOf(0), 2u);
  EXPECT_EQ(index.BlocksOf(0)[0], 0u);
  EXPECT_EQ(index.BlocksOf(0)[1], 1u);
  EXPECT_EQ(index.NumBlocksOf(2), 1u);
  EXPECT_EQ(index.BlocksOf(2)[0], 0u);
}

TEST(ProfileIndexTest, LeastCommonBlockFindsSmallestSharedId) {
  BlockCollection bc(ErType::kDirty, 10);
  bc.Add("b0", {1, 2});
  bc.Add("b1", {2, 3});
  bc.Add("b2", {1, 2, 3});
  ProfileIndex index(bc, 10);
  EXPECT_EQ(index.LeastCommonBlock(1, 2), 0u);
  EXPECT_EQ(index.LeastCommonBlock(2, 3), 1u);
  EXPECT_EQ(index.LeastCommonBlock(1, 3), 2u);
  EXPECT_EQ(index.LeastCommonBlock(1, 9), kInvalidBlock);
}

TEST(ProfileIndexTest, CountCommonBlocks) {
  BlockCollection bc(ErType::kDirty, 10);
  bc.Add("b0", {1, 2});
  bc.Add("b1", {1, 2, 3});
  bc.Add("b2", {2, 3});
  ProfileIndex index(bc, 10);
  EXPECT_EQ(index.CountCommonBlocks(1, 2), 2u);
  EXPECT_EQ(index.CountCommonBlocks(2, 3), 2u);
  EXPECT_EQ(index.CountCommonBlocks(1, 3), 1u);
}

TEST(ProfileIndexTest, ForEachCommonBlockVisitsAscending) {
  BlockCollection bc(ErType::kDirty, 10);
  bc.Add("b0", {1, 2});
  bc.Add("b1", {1, 3});
  bc.Add("b2", {1, 2});
  ProfileIndex index(bc, 10);
  std::vector<BlockId> visited;
  index.ForEachCommonBlock(1, 2, [&](BlockId b) { visited.push_back(b); });
  EXPECT_EQ(visited, (std::vector<BlockId>{0, 2}));
}

/// Every profile's list of `index` is the ascending ids of the blocks of
/// `blocks` that hold it, as one pass over the blocks in id order gives.
void ExpectIndexOf(const BlockCollection& blocks, const ProfileIndex& index) {
  std::vector<std::vector<BlockId>> lists(index.num_profiles());
  for (BlockId b = 0; b < blocks.size(); ++b) {
    for (ProfileId p : blocks.members(b)) lists[p].push_back(b);
  }
  std::uint64_t offset = 0;
  for (ProfileId p = 0; p < index.num_profiles(); ++p) {
    ASSERT_EQ(index.NumEntriesIn(0, p), offset) << "offset of profile " << p;
    const std::span<const BlockId> got = index.BlocksOf(p);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), lists[p].begin(),
                           lists[p].end()))
        << "blocks of profile " << p;
    offset += lists[p].size();
  }
  EXPECT_EQ(index.NumEntriesIn(0, index.num_profiles()), offset);
}

TEST(ProfileIndexTest, EveryThreadCountBuildsTheReferenceIndex) {
  // The transpose splits the blocks into ranges of equal membership; each
  // range's ids of a profile must follow the earlier ranges', on Dirty
  // (cora) and Clean-Clean (dbpedia) workflow blocks.
  DatagenOptions small;
  small.scale = 0.02;
  for (const auto& [name, gen] :
       {std::pair<const char*, DatagenOptions>{"cora", {}},
        std::pair<const char*, DatagenOptions>{"dbpedia", small}}) {
    SCOPED_TRACE(name);
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    ASSERT_TRUE(dataset.ok());
    const ProfileStore& store = dataset.value().store;
    const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
    ASSERT_GT(blocks.size(), 8u);
    for (std::size_t threads : {1u, 2u, 3u, 4u, 7u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExpectIndexOf(blocks, ProfileIndex(blocks, store.size(), threads));
    }
  }
}

TEST(ProfileIndexTest, ParallelIndexHandlesEdgeShapes) {
  // No blocks at all; profiles in no block (0, 5 and the last, 9); more
  // threads than blocks.
  const BlockCollection empty(ErType::kDirty, 10);
  BlockCollection sparse(ErType::kDirty, 10);
  sparse.Add("b0", {1, 2});
  sparse.Add("b1", {2, 3, 4});
  sparse.Add("b2", {1, 6, 7, 8});
  for (const BlockCollection* blocks :
       {&empty, static_cast<const BlockCollection*>(&sparse)}) {
    for (std::size_t threads : {1u, 2u, 3u, 4u, 7u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExpectIndexOf(*blocks, ProfileIndex(*blocks, 10, threads));
    }
  }
  const ProfileIndex index(sparse, 10, 8);
  EXPECT_EQ(index.NumBlocksOf(0), 0u);
  EXPECT_EQ(index.NumBlocksOf(5), 0u);
  EXPECT_EQ(index.NumBlocksOf(9), 0u);
  EXPECT_EQ(index.NumBlocksOf(2), 2u);
  EXPECT_EQ(index.BlocksOf(1)[1], 2u);
}

// ------------------------------------------------------------ SuffixForest

TEST(SuffixForestTest, GeneratesAllSuffixesAboveLmin) {
  // The paper's Fig. 5 example: tokens gain/pain/join/coin share suffixes
  // "ain"/"oin" and all share "in" at lmin=2.
  std::vector<Profile> ps(4);
  ps[0].AddAttribute("v", "gain");
  ps[1].AddAttribute("v", "pain");
  ps[2].AddAttribute("v", "join");
  ps[3].AddAttribute("v", "coin");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  SuffixForestOptions options;
  options.lmin = 2;
  SuffixForest forest = SuffixForest::Build(store, options);

  std::map<std::string, std::vector<ProfileId>> nodes;
  for (const SuffixNode& n : forest.nodes()) nodes[n.suffix] = n.profiles;
  // 4-char leaves are singletons -> dropped; shared suffixes survive.
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes["ain"], (std::vector<ProfileId>{0, 1}));
  EXPECT_EQ(nodes["oin"], (std::vector<ProfileId>{2, 3}));
  EXPECT_EQ(nodes["in"], (std::vector<ProfileId>{0, 1, 2, 3}));
}

TEST(SuffixForestTest, LeavesFirstRootLastOrdering) {
  std::vector<Profile> ps(4);
  ps[0].AddAttribute("v", "gain");
  ps[1].AddAttribute("v", "pain");
  ps[2].AddAttribute("v", "join");
  ps[3].AddAttribute("v", "coin");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  SuffixForestOptions options;
  options.lmin = 2;
  SuffixForest forest = SuffixForest::Build(store, options);
  ASSERT_EQ(forest.nodes().size(), 3u);
  // Longest suffixes first ("ain" before "in"); same layer ordered by
  // cardinality then suffix.
  EXPECT_EQ(forest.nodes()[0].suffix, "ain");
  EXPECT_EQ(forest.nodes()[1].suffix, "oin");
  EXPECT_EQ(forest.nodes()[2].suffix, "in");
  EXPECT_EQ(forest.TotalComparisons(), 1u + 1u + 6u);
}

TEST(SuffixForestTest, RespectsMaxSuffixLength) {
  std::vector<Profile> ps(2);
  ps[0].AddAttribute("v", "abcdefghij");
  ps[1].AddAttribute("v", "zbcdefghij");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  SuffixForestOptions options;
  options.lmin = 3;
  options.max_suffix_length = 5;
  SuffixForest forest = SuffixForest::Build(store, options);
  for (const SuffixNode& n : forest.nodes()) {
    EXPECT_LE(n.suffix.size(), 5u);
    EXPECT_GE(n.suffix.size(), 3u);
  }
  // The shared 5-char suffix "fghij" must exist.
  bool found = false;
  for (const SuffixNode& n : forest.nodes()) {
    if (n.suffix == "fghij") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SuffixForestTest, CleanCleanDropsSingleSourceNodes) {
  std::vector<Profile> s1(1), s2(1);
  s1[0].AddAttribute("v", "gain");
  s2[0].AddAttribute("v", "pain");
  ProfileStore store =
      ProfileStore::MakeCleanClean(std::move(s1), std::move(s2));
  SuffixForestOptions options;
  options.lmin = 2;
  SuffixForest forest = SuffixForest::Build(store, options);
  // Shared suffixes "ain"/"in" are cross-source; "gain"/"pain" are not.
  std::vector<std::string> suffixes;
  for (const SuffixNode& n : forest.nodes()) suffixes.push_back(n.suffix);
  EXPECT_EQ(suffixes, (std::vector<std::string>{"ain", "in"}));
}

}  // namespace
}  // namespace sper
