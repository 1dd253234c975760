// Sharded serving determinism suite. The contract under test
// (src/engine/sharded_engine.h):
//
// - S=1 is *bit-identical* to a plain ProgressiveEngine (pairs and
//   weights), for PPS and PBS on Dirty and Clean-Clean stores;
// - for every S the merged global stream is invariant to the thread
//   count (1 vs 4) and across repeated constructions;
// - emissions are expressed in original profile ids and respect the
//   original store's comparability rule;
// - the pay-as-you-go budget is enforced *globally* across shards;
// - the store partition itself preserves sources, order and ids.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/store_partition.h"
#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/sharded_engine.h"
#include "parallel/ordered_merge.h"

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

// --------------------------------------------------------- KWayMerge unit

TEST(KWayMergeTest, MergesSortedStreamsInOrderWithStableTies) {
  auto make_stream = [](std::vector<int> values) {
    return KWayMerge<int>::Stream(
        [values = std::move(values), next = std::size_t{0}](
            int& out) mutable {
          if (next >= values.size()) return MergeStatus::kExhausted;
          out = values[next++];
          return MergeStatus::kItem;
        });
  };
  KWayMerge<int> merge;
  merge.AddStream(make_stream({1, 4, 7}));
  merge.AddStream(make_stream({1, 2, 9}));
  merge.AddStream(make_stream({}));
  std::vector<int> out;
  std::vector<std::size_t> streams;
  int value = 0;
  while (merge.Next(value) == MergeStatus::kItem) {
    out.push_back(value);
    streams.push_back(merge.last_stream());
  }
  EXPECT_EQ(out, (std::vector<int>{1, 1, 2, 4, 7, 9}));
  // The tied 1s leave in stream order.
  EXPECT_EQ(streams, (std::vector<std::size_t>{0, 1, 1, 0, 0, 1}));
  EXPECT_EQ(merge.Next(value), MergeStatus::kExhausted);
}

// ----------------------------------------------------- partition invariants

TEST(StorePartitionTest, SingleShardIsIdentityCopy) {
  const ProfileStore store = CleanCleanStore();
  std::vector<StoreShard> shards = PartitionStore(store, 1);
  ASSERT_EQ(shards.size(), 1u);
  const StoreShard& shard = shards[0];
  ASSERT_EQ(shard.store.size(), store.size());
  EXPECT_EQ(shard.store.er_type(), store.er_type());
  EXPECT_EQ(shard.store.split_index(), store.split_index());
  for (ProfileId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(shard.to_global[id], id);
  }
}

TEST(StorePartitionTest, ShardsCoverStoreAndPreserveSources) {
  const ProfileStore store = CleanCleanStore();
  for (std::size_t num_shards : {2u, 4u, 8u}) {
    std::vector<StoreShard> shards = PartitionStore(store, num_shards);
    ASSERT_EQ(shards.size(), num_shards);
    std::set<ProfileId> seen;
    std::size_t total = 0;
    for (const StoreShard& shard : shards) {
      ASSERT_EQ(shard.to_global.size(), shard.store.size());
      total += shard.store.size();
      for (ProfileId local = 0; local < shard.store.size(); ++local) {
        const ProfileId global = shard.to_global[local];
        seen.insert(global);
        // Source membership is preserved under translation.
        EXPECT_EQ(shard.store.InSource1(local), store.InSource1(global));
        // Ascending global order within each source range.
        if (local > 0 &&
            shard.store.InSource1(local) == shard.store.InSource1(local - 1)) {
          EXPECT_LT(shard.to_global[local - 1], global);
        }
        // Attributes travel with the profile.
        EXPECT_EQ(shard.store.profile(local).attributes().size(),
                  store.profile(global).attributes().size());
      }
    }
    EXPECT_EQ(total, store.size());
    EXPECT_EQ(seen.size(), store.size());
  }
}

// -------------------------------------------------- sharded engine streams

struct ShardCase {
  MethodId method;
  bool clean_clean;
};

class ShardedDeterminismTest : public ::testing::TestWithParam<ShardCase> {};

std::vector<Comparison> ShardedPrefix(const ProfileStore& store,
                                      MethodId method,
                                      std::size_t num_shards,
                                      std::size_t num_threads,
                                      std::size_t limit) {
  ResolverOptions config;
  config.method = method;
  config.num_threads = num_threads;
  config.num_shards = num_shards;
  ShardedEngine engine(store, config);
  return Drain(&engine, limit);
}

TEST_P(ShardedDeterminismTest, SingleShardBitIdenticalToPlainEngine) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  ResolverOptions plain;
  plain.method = GetParam().method;
  ProgressiveEngine reference(store, plain);
  const std::vector<Comparison> expected = Drain(&reference, 3000);

  const std::vector<Comparison> actual =
      ShardedPrefix(store, GetParam().method, 1, 1, 3000);
  ExpectSameSequence(actual, expected);
}

TEST_P(ShardedDeterminismTest, MergedPrefixInvariantAcrossThreadCounts) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  for (std::size_t num_shards : {1u, 2u, 4u, 8u}) {
    const std::vector<Comparison> reference =
        ShardedPrefix(store, GetParam().method, num_shards, 1, 2000);
    for (std::size_t num_threads : {1u, 4u}) {
      const std::vector<Comparison> run = ShardedPrefix(
          store, GetParam().method, num_shards, num_threads, 2000);
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " threads=" + std::to_string(num_threads));
      ExpectSameSequence(run, reference);
    }
  }
}

TEST_P(ShardedDeterminismTest, EmitsOriginalComparableIds) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  const std::vector<Comparison> merged =
      ShardedPrefix(store, GetParam().method, 4, 2, 2000);
  EXPECT_FALSE(merged.empty());
  for (const Comparison& c : merged) {
    ASSERT_LT(c.i, store.size());
    ASSERT_LT(c.j, store.size());
    EXPECT_LT(c.i, c.j);
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
    // Both endpoints hash to the same shard: only intra-shard pairs exist.
    EXPECT_EQ(ShardOf(c.i, 4), ShardOf(c.j, 4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbs, ShardedDeterminismTest,
    ::testing::Values(ShardCase{MethodId::kPps, false},
                      ShardCase{MethodId::kPps, true},
                      ShardCase{MethodId::kPbs, false},
                      ShardCase{MethodId::kPbs, true}),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      std::string name(ToString(info.param.method));
      name += info.param.clean_clean ? "_CleanClean" : "_Dirty";
      return name;
    });

// ------------------------------------------------------------ global budget

TEST(ShardedEngineTest, GlobalBudgetEnforcedAcrossShards) {
  const ProfileStore store = DirtyStore();
  ResolverOptions config;
  config.method = MethodId::kPps;
  config.num_shards = 4;
  config.budget = 25;
  ShardedEngine engine(store, config);

  const std::vector<Comparison> emitted = Drain(&engine, 1000000);
  EXPECT_EQ(emitted.size(), 25u);
  EXPECT_EQ(engine.emitted(), 25u);
  EXPECT_TRUE(engine.BudgetExhausted());
  EXPECT_FALSE(engine.Next().has_value());

  // Unbudgeted, the same sharded run emits strictly more: the cap came
  // from the global budget, not from any one shard running dry.
  ResolverOptions unlimited = config;
  unlimited.budget = 0;
  ShardedEngine full(store, unlimited);
  EXPECT_GT(Drain(&full, 1000000).size(), 25u);
}

TEST(ShardedEngineTest, BudgetedPrefixMatchesUnbudgetedStream) {
  const ProfileStore store = DirtyStore();
  ResolverOptions config;
  config.method = MethodId::kPbs;
  config.num_shards = 2;
  ShardedEngine full(store, config);
  const std::vector<Comparison> reference = Drain(&full, 40);

  config.budget = 40;
  ShardedEngine budgeted(store, config);
  ExpectSameSequence(Drain(&budgeted, 1000000), reference);
}

TEST(ShardedEngineTest, ReportsAggregateInitStats) {
  const ProfileStore store = DirtyStore();
  ResolverOptions config;
  config.method = MethodId::kPps;
  config.num_shards = 4;
  ShardedEngine engine(store, config);
  EXPECT_EQ(engine.name(), "PPS");
  const InitStats& stats = engine.init_stats();
  EXPECT_GT(stats.num_blocks, 0u);
  EXPECT_GT(stats.aggregate_cardinality, 0u);
  ASSERT_EQ(stats.shard_sizes.size(), 4u);
  std::size_t total = 0;
  for (std::size_t size : stats.shard_sizes) total += size;
  EXPECT_EQ(total, store.size());
}

TEST(ShardedEngineTest, MoreShardsThanProfilesStillServes) {
  // Tiny store, many shards: most shards are barren and skipped; the
  // stream still surfaces the duplicate pair if it lands intra-shard,
  // and never crashes either way.
  std::vector<Profile> ps(3);
  ps[0].AddAttribute("name", "alpha beta gamma");
  ps[1].AddAttribute("name", "alpha beta gamma");
  ps[2].AddAttribute("name", "delta epsilon");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  ResolverOptions config;
  config.method = MethodId::kPps;
  config.num_shards = 64;
  ShardedEngine engine(store, config);
  const std::vector<Comparison> merged = Drain(&engine, 100);
  for (const Comparison& c : merged) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
  }
}

}  // namespace
}  // namespace sper
