// Unit tests for src/progressive: per-method behaviour on small
// hand-checkable inputs, ComparisonList, TopKBuffer with the ComparisonKey
// order it selects on, the workflow helper and batch ER.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "progressive/batch.h"
#include "progressive/comparison_list.h"
#include "progressive/top_k.h"
#include "progressive/gs_psn.h"
#include "progressive/ls_psn.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/psn.h"
#include "progressive/sa_psab.h"
#include "progressive/sa_psn.h"
#include "progressive/workflow.h"

namespace sper {
namespace {

using Pair = std::pair<ProfileId, ProfileId>;

NeighborListOptions NoShuffle() {
  NeighborListOptions options;
  options.shuffle_ties = false;
  return options;
}

std::vector<Comparison> DrainAll(ProgressiveEmitter& emitter,
                                 std::size_t limit = 100000) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter.Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

std::set<Pair> DistinctPairs(const std::vector<Comparison>& comparisons) {
  std::set<Pair> out;
  for (const Comparison& c : comparisons) out.emplace(c.i, c.j);
  return out;
}

ProfileStore TinyDirty() {
  std::vector<Profile> ps(4);
  ps[0].AddAttribute("v", "alpha beta");
  ps[1].AddAttribute("v", "alpha beta");
  ps[2].AddAttribute("v", "beta gamma");
  ps[3].AddAttribute("v", "delta");
  return ProfileStore::MakeDirty(std::move(ps));
}

ProfileStore TinyCleanClean() {
  std::vector<Profile> s1(2), s2(2);
  s1[0].AddAttribute("v", "alpha beta");
  s1[1].AddAttribute("v", "gamma");
  s2[0].AddAttribute("v", "alpha beta");
  s2[1].AddAttribute("v", "gamma delta");
  return ProfileStore::MakeCleanClean(std::move(s1), std::move(s2));
}

// --------------------------------------------------------- ComparisonList

TEST(ComparisonListTest, PopsInDescendingWeight) {
  ComparisonList list;
  list.Add(Comparison(0, 1, 0.5));
  list.Add(Comparison(0, 2, 0.9));
  list.Add(Comparison(1, 2, 0.7));
  list.SortDescending();
  EXPECT_EQ(list.remaining(), 3u);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.9);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.7);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.5);
  EXPECT_TRUE(list.Empty());
}

TEST(ComparisonListTest, ClearResetsState) {
  ComparisonList list;
  list.Add(Comparison(0, 1, 1.0));
  list.SortDescending();
  list.Clear();
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(list.remaining(), 0u);
}

TEST(ComparisonListTest, SortDescendingFromSortsOnlyTheTail) {
  ComparisonList list;
  list.Add(Comparison(0, 1, 0.1));  // an earlier refill: left in place
  list.Add(Comparison(0, 2, 0.5));
  list.Add(Comparison(0, 3, 0.9));
  list.SortDescending(1);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.1);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.9);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.5);
  list.Truncate(3);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(list.size(), 3u);
}

TEST(ComparisonListTest, AppendFromConcatenatesRemainingItems) {
  ComparisonList batch;
  batch.Add(Comparison(0, 1, 0.9));
  batch.Add(Comparison(0, 2, 0.8));
  batch.SortDescending();
  batch.PopFirst();  // already-popped items must not be re-appended

  ComparisonList list;
  list.Add(Comparison(4, 5, 0.95));
  list.AppendFrom(batch);
  EXPECT_EQ(list.remaining(), 2u);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.95);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.8);
}

// ------------------------------------------------------------- TopKBuffer

/// Selects the k best of `stream` with `topk` and appends them to `list`.
void SelectInto(TopKBuffer& topk, std::size_t k,
                const std::vector<Comparison>& stream, ComparisonList& list) {
  topk.Assign(k, stream.size(), [&](std::size_t t) { return stream[t]; });
  topk.AppendDescending(list);
}

/// The k best of `stream` as `topk` keeps them, best first.
std::vector<Comparison> Kept(TopKBuffer& topk, std::size_t k,
                             const std::vector<Comparison>& stream) {
  ComparisonList list;
  SelectInto(topk, k, stream, list);
  std::vector<Comparison> out;
  while (!list.Empty()) out.push_back(list.PopFirst());
  return out;
}

TEST(TopKBufferTest, KeepsTheKBestInDescendingOrder) {
  // Twenty candidates in ascending weight order, so the best three come
  // last and the selection has to drop the seventeen stored before them.
  std::vector<Comparison> stream;
  for (int v = 0; v < 20; ++v) {
    stream.emplace_back(0, static_cast<ProfileId>(v + 1), 0.05 * v);
  }
  TopKBuffer topk;
  ComparisonList list;
  list.Add(Comparison(7, 8, 42.0));  // an earlier refill stays in front
  SelectInto(topk, 3, stream, list);
  ASSERT_EQ(list.remaining(), 4u);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 42.0);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.05 * 19);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.05 * 18);
  EXPECT_DOUBLE_EQ(list.PopFirst().weight, 0.05 * 17);
}

TEST(TopKBufferTest, TiesResolveByIdsLikeByWeightDesc) {
  TopKBuffer topk;
  const std::vector<Comparison> kept = Kept(
      topk, 2, {Comparison(5, 6, 1.0), Comparison(1, 2, 1.0),
                Comparison(3, 4, 1.0)});
  ASSERT_EQ(kept.size(), 2u);
  // ByWeightDesc ranks equal weights by ascending ids: (1,2) then (3,4).
  EXPECT_EQ(kept[0].i, 1u);
  EXPECT_EQ(kept[1].i, 3u);
}

TEST(TopKBufferTest, UnboundedAndZeroAndReuse) {
  TopKBuffer topk;
  std::vector<Comparison> stream;
  for (int v = 0; v < 100; ++v) {
    stream.emplace_back(0, static_cast<ProfileId>(v + 1), 1.0 * v);
  }
  // Same Eventual Quality: nothing truncated.
  EXPECT_EQ(Kept(topk, SIZE_MAX, stream).size(), 100u);

  // k = 0 keeps nothing, but still produces every candidate once.
  std::size_t produced = 0;
  topk.Assign(0, stream.size(), [&](std::size_t t) {
    ++produced;
    return stream[t];
  });
  ComparisonList list;
  topk.AppendDescending(list);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(produced, stream.size());

  // Reuse after both extremes.
  EXPECT_EQ(Kept(topk, 5, {Comparison(0, 1, 1.0)}).size(), 1u);
}

/// Differential check against std::sort by ByWeightDesc, truncated to k:
/// `topk` must keep the same pairs, with the same weight bits, in order.
void ExpectKeptMatchesSort(TopKBuffer& topk, std::size_t k,
                           const std::vector<Comparison>& stream) {
  std::vector<Comparison> sorted = stream;
  std::sort(sorted.begin(), sorted.end(), ByWeightDesc());
  sorted.resize(std::min(k, stream.size()));

  const std::vector<Comparison> kept = Kept(topk, k, stream);
  ASSERT_EQ(kept.size(), sorted.size());
  for (std::size_t r = 0; r < kept.size(); ++r) {
    ASSERT_TRUE(kept[r].SamePair(sorted[r])) << "rank " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(kept[r].weight),
              std::bit_cast<std::uint64_t>(sorted[r].weight))
        << "rank " << r;
  }
}

TEST(TopKBufferTest, MatchesAFullSortOfSeededStreams) {
  // Stream lengths around k and two long ones, weights drawn from 1-3
  // values (tied, as ARCS shares are) or from many, always with +0.0
  // present, shuffled. One buffer serves every stream and k, so it also
  // grows.
  std::mt19937_64 rng(20261019);
  const std::size_t longest = 20000;
  const double few[] = {0.0, 0.125, 1.0 / 3};
  TopKBuffer topk;
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{7}, std::size_t{100},
                        std::size_t{SIZE_MAX}}) {
    std::set<std::size_t> lengths = {0, 1, 5000, longest};
    for (std::size_t m : {k - 1, k, k + 1, 2 * k}) {
      if (m <= longest) lengths.insert(m);
    }
    for (std::size_t m : lengths) {
      for (bool tied : {true, false}) {
        SCOPED_TRACE("k " + std::to_string(k) + ", m " + std::to_string(m) +
                     (tied ? ", tied" : ", many weights"));
        const std::size_t values = 1 + rng() % 3;
        std::vector<Comparison> stream;
        for (std::size_t t = 0; t < m; ++t) {
          // Distinct pairs: j is unique, i is drawn below every j.
          const double weight =
              tied ? few[rng() % values]
                   : static_cast<double>(rng() >> 11) * 0x1p-53;
          stream.emplace_back(static_cast<ProfileId>(rng() % 1000),
                              static_cast<ProfileId>(1000 + t), weight);
        }
        if (m > 0) stream[rng() % m].weight = 0.0;
        std::shuffle(stream.begin(), stream.end(), rng);
        ExpectKeptMatchesSort(topk, k, stream);
      }
    }
  }
}

/// The candidates of profile `i` in the order a PPS gather hands them
/// over: block by block, ascending j within a block, each neighbor once,
/// at its first touch. Most carry their block's share, and one in eight
/// also shares another block and weighs more. Shares repeat across
/// blocks, as the ARCS shares of equal-sized blocks do.
std::vector<Comparison> GatherShapedStream(std::mt19937_64& rng,
                                           ProfileId i, std::size_t blocks) {
  const double shares[] = {1.0 / 2, 1.0 / 3, 1.0 / 6, 1.0 / 10};
  std::vector<Comparison> stream;
  std::set<ProfileId> touched;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double share = shares[rng() % std::size(shares)];
    const std::size_t size = 1 + rng() % 40;
    std::set<ProfileId> members;
    while (members.size() < size) {
      const ProfileId j = static_cast<ProfileId>(rng() % (2 * i));
      if (j != i) members.insert(j);
    }
    for (ProfileId j : members) {
      if (!touched.insert(j).second) continue;
      const double extra =
          rng() % 8 == 0 ? shares[rng() % std::size(shares)] : 0.0;
      stream.emplace_back(i, j, share + extra);
    }
  }
  return stream;
}

TEST(TopKBufferTest, MatchesAFullSortOfGatherShapedStreams) {
  // Unshuffled streams: a gather's (descending runs that the merge sort
  // keeps, ties at the k-th weight spread across blocks), the same keys
  // as one descending run, and as one ascent where every key is a run of
  // its own. i sits mid-range, so pairs lie on both sides of it.
  std::mt19937_64 rng(20261020);
  TopKBuffer topk;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{100}, std::size_t{SIZE_MAX}}) {
    for (std::size_t blocks : {1, 2, 5, 30}) {
      SCOPED_TRACE("k " + std::to_string(k) + ", blocks " +
                   std::to_string(blocks));
      std::vector<Comparison> stream = GatherShapedStream(rng, 1000, blocks);
      ExpectKeptMatchesSort(topk, k, stream);
      std::sort(stream.begin(), stream.end(), ByWeightDesc());
      ExpectKeptMatchesSort(topk, k, stream);
      std::reverse(stream.begin(), stream.end());
      ExpectKeptMatchesSort(topk, k, stream);
    }
  }
}

TEST(TopKBufferTest, KeepsTheSmallestPairAmongTiesAtTheKthWeight) {
  // One pair above the k-th weight 0.5 and five ties at it: the tie kept
  // is the smallest pair, although it comes last.
  TopKBuffer topk;
  const std::vector<Comparison> kept = Kept(
      topk, 2, {Comparison(0, 10, 1.0), Comparison(0, 11, 0.5),
                Comparison(0, 12, 0.5), Comparison(0, 13, 0.5),
                Comparison(0, 90000, 0.5), Comparison(0, 5, 0.5)});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept[0].SamePair(Comparison(0, 10, 1.0)));
  EXPECT_TRUE(kept[1].SamePair(Comparison(0, 5, 0.5)));
}

// ---------------------------------------------------------- ComparisonKey

TEST(ComparisonKeyTest, OrdersLikeByWeightDescAndDecodesBitForBit) {
  // Heavily tied weights at the edges of Finalize's domain: +0.0, the
  // smallest subnormal and normal, neighbors of 1.0, the largest finite.
  const double weights[] = {0.0,
                            std::numeric_limits<double>::denorm_min(),
                            2 * std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::nextafter(1.0, 0.0),
                            1.0,
                            std::nextafter(1.0, 2.0),
                            1e308,
                            std::numeric_limits<double>::max()};
  const ProfileId ids[] = {0, 1, 2, 1u << 31, kInvalidProfile - 2,
                           kInvalidProfile - 1};
  std::mt19937_64 rng(11);
  const auto random_comparison = [&] {
    const ProfileId a = ids[rng() % std::size(ids)];
    const ProfileId b = ids[rng() % std::size(ids)];
    return Comparison(a, b, weights[rng() % std::size(weights)]);
  };
  const auto same_bits = [](const Comparison& a, const Comparison& b) {
    return a.i == b.i && a.j == b.j &&
           std::bit_cast<std::uint64_t>(a.weight) ==
               std::bit_cast<std::uint64_t>(b.weight);
  };
  for (int t = 0; t < 20000; ++t) {
    const Comparison a = random_comparison();
    const Comparison b = random_comparison();
    const ComparisonKey ka = ComparisonKey::Of(a);
    const ComparisonKey kb = ComparisonKey::Of(b);
    ASSERT_EQ(ByWeightDesc()(a, b), ka > kb)
        << "(" << a.i << "," << a.j << "," << a.weight << ") vs (" << b.i
        << "," << b.j << "," << b.weight << ")";
    ASSERT_EQ(ByWeightDesc()(b, a), ka < kb);
    ASSERT_TRUE(same_bits(ka.Decode(), a));
  }
}

// ------------------------------------------------------------------- PSN

TEST(PsnTest, EmptyKeysExhaustImmediately) {
  ProfileStore store = TinyDirty();
  PsnEmitter psn(store, [](const Profile&) { return std::string(); });
  EXPECT_FALSE(psn.Next().has_value());
}

TEST(PsnTest, EmitsEachPairAtItsKeyDistance) {
  ProfileStore store = TinyDirty();
  // Keys: p0 "a", p1 "a", p2 "b", p3 "c" -> list [0, 1, 2, 3].
  PsnEmitter psn(store, [](const Profile& p) {
    return std::string(p.ValueOf("v").substr(0, 1));
  }, NoShuffle());
  std::vector<Comparison> all = DrainAll(psn);
  ASSERT_EQ(all.size(), 6u);  // C(4,2), no repeats for 1 placement each
  EXPECT_EQ(DistinctPairs(all).size(), 6u);
  EXPECT_EQ((Pair{all[0].i, all[0].j}), (Pair{0, 1}));
}

// ---------------------------------------------------------------- SA-PSN

TEST(SaPsnTest, DirtySkipsSameProfileAdjacency) {
  ProfileStore store = TinyDirty();
  SaPsnEmitter emitter(store, NoShuffle());
  // NL: alpha(0,1), beta(0,1,2), delta(3), gamma(2):
  // [0,1,0,1,2,3,2]; window 1 skips nothing here except (2,3)(3,2) valid...
  std::vector<Comparison> all = DrainAll(emitter);
  for (const Comparison& c : all) EXPECT_NE(c.i, c.j);
  EXPECT_FALSE(all.empty());
}

TEST(SaPsnTest, CleanCleanEmitsOnlyCrossSourcePairs) {
  ProfileStore store = TinyCleanClean();
  SaPsnEmitter emitter(store, NoShuffle());
  std::vector<Comparison> all = DrainAll(emitter);
  ASSERT_FALSE(all.empty());
  for (const Comparison& c : all) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j))
        << "(" << c.i << "," << c.j << ")";
  }
}

TEST(SaPsnTest, ExhaustionCoversAllValidPairsOfTheList) {
  // Same Eventual Quality: with the window growing to the list size,
  // every comparable pair placed in the NL is eventually emitted.
  ProfileStore store = TinyDirty();
  SaPsnEmitter emitter(store, NoShuffle());
  std::set<Pair> distinct = DistinctPairs(DrainAll(emitter));
  EXPECT_EQ(distinct.size(), 6u);  // all C(4,2) pairs
}

// --------------------------------------------------------------- SA-PSAB

TEST(SaPsabTest, EmitsLeafNodesBeforeRoots) {
  std::vector<Profile> ps(4);
  ps[0].AddAttribute("v", "gain");
  ps[1].AddAttribute("v", "pain");
  ps[2].AddAttribute("v", "join");
  ps[3].AddAttribute("v", "coin");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  SuffixForestOptions options;
  options.lmin = 2;
  SaPsabEmitter emitter(store, options);
  std::vector<Comparison> all = DrainAll(emitter);
  // "ain" (0,1), "oin" (2,3), then all 6 pairs of "in".
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ((Pair{all[0].i, all[0].j}), (Pair{0, 1}));
  EXPECT_EQ((Pair{all[1].i, all[1].j}), (Pair{2, 3}));
  // The child pairs reappear under the root (repeats are not filtered).
  EXPECT_EQ(DistinctPairs(all).size(), 6u);
}

TEST(SaPsabTest, CleanCleanEmitsOnlyCrossSourcePairs) {
  ProfileStore store = TinyCleanClean();
  SaPsabEmitter emitter(store);
  for (const Comparison& c : DrainAll(emitter)) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
  }
}

// ---------------------------------------------------------------- LS-PSN

TEST(LsPsnTest, WeightsAreNonIncreasingWithinAWindow) {
  ProfileStore store = TinyDirty();
  LsPsnEmitter emitter(store, NoShuffle());
  double previous = 1e300;
  std::size_t window = emitter.window();
  while (true) {
    std::optional<Comparison> c = emitter.Next();
    if (!c.has_value()) break;
    if (emitter.window() != window) {
      window = emitter.window();
      previous = 1e300;
    }
    EXPECT_LE(c->weight, previous);
    previous = c->weight;
  }
}

TEST(LsPsnTest, CleanCleanRestrictsToCrossSource) {
  ProfileStore store = TinyCleanClean();
  LsPsnEmitter emitter(store, NoShuffle());
  std::vector<Comparison> all = DrainAll(emitter);
  ASSERT_FALSE(all.empty());
  for (const Comparison& c : all) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
  }
}

TEST(LsPsnTest, PerfectCoOccurrenceDominatesTheWindow) {
  // p0 and p1 have identical token sets. Their deterministic NL is
  // [0,1,0,1,2,2]: the pair is adjacent at positions (0,1), (1,2) and
  // (2,3), so freq = 3 > |PI| overlap and RCF = 3/(2+2-3) = 3. The RCF of
  // Algorithm 1 is intentionally unbounded above 1 — adjacency across run
  // boundaries counts too — what matters is the relative order.
  std::vector<Profile> ps(3);
  ps[0].AddAttribute("v", "aa bb");
  ps[1].AddAttribute("v", "aa bb");
  ps[2].AddAttribute("v", "zz yy");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  LsPsnEmitter emitter(store, NoShuffle());
  std::optional<Comparison> first = emitter.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((Pair{first->i, first->j}), (Pair{0, 1}));
  EXPECT_DOUBLE_EQ(first->weight, 3.0);
}

// ---------------------------------------------------------------- GS-PSN

TEST(GsPsnTest, EmitsNoRepeatedComparisons) {
  GsPsnOptions options;
  options.wmax = 5;
  options.list = NoShuffle();
  ProfileStore store = TinyDirty();
  GsPsnEmitter emitter(store, options);
  std::vector<Comparison> all = DrainAll(emitter);
  EXPECT_EQ(DistinctPairs(all).size(), all.size());
}

TEST(GsPsnTest, WeightsAreGloballyNonIncreasing) {
  GsPsnOptions options;
  options.wmax = 4;
  options.list = NoShuffle();
  ProfileStore store = TinyDirty();
  GsPsnEmitter emitter(store, options);
  double previous = 1e300;
  for (const Comparison& c : DrainAll(emitter)) {
    EXPECT_LE(c.weight, previous);
    previous = c.weight;
  }
}

TEST(GsPsnTest, WmaxBoundsTheReach) {
  // With wmax = 1 only window-1 co-occurrences are considered.
  GsPsnOptions narrow;
  narrow.wmax = 1;
  narrow.list = NoShuffle();
  ProfileStore store = TinyDirty();
  GsPsnEmitter emitter_narrow(store, narrow);
  const std::size_t narrow_count = DrainAll(emitter_narrow).size();

  GsPsnOptions wide;
  wide.wmax = 6;
  wide.list = NoShuffle();
  GsPsnEmitter emitter_wide(store, wide);
  const std::size_t wide_count = DrainAll(emitter_wide).size();
  EXPECT_LT(narrow_count, wide_count);
}

TEST(GsPsnTest, TotalComparisonsReportsListSize) {
  GsPsnOptions options;
  options.wmax = 3;
  options.list = NoShuffle();
  ProfileStore store = TinyDirty();
  GsPsnEmitter emitter(store, options);
  EXPECT_EQ(emitter.total_comparisons(), DrainAll(emitter).size());
}

// ------------------------------------------------------------------- PBS

TEST(PbsTest, EmitsEveryDistinctBlockComparisonExactlyOnce) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  PbsEmitter pbs(store, blocks);
  std::vector<Comparison> all = DrainAll(pbs);
  std::vector<Comparison> batch = DistinctBlockComparisons(blocks, store);
  EXPECT_EQ(all.size(), batch.size());
  EXPECT_EQ(DistinctPairs(all), DistinctPairs(batch));
}

TEST(PbsTest, BlocksAreProcessedInCardinalityOrder) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  PbsEmitter pbs(store, blocks);
  const BlockCollection& scheduled = pbs.scheduled_blocks();
  for (BlockId id = 1; id < scheduled.size(); ++id) {
    EXPECT_LE(scheduled.Cardinality(id - 1), scheduled.Cardinality(id));
  }
}

TEST(PbsTest, CleanCleanEmitsOnlyCrossSourcePairs) {
  ProfileStore store = TinyCleanClean();
  BlockCollection blocks = TokenBlocking(store);
  PbsEmitter pbs(store, blocks);
  for (const Comparison& c : DrainAll(pbs)) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
  }
}

TEST(PbsTest, EmptyBlockCollectionExhaustsImmediately) {
  ProfileStore store = TinyDirty();
  BlockCollection empty(ErType::kDirty, store.split_index());
  PbsEmitter pbs(store, empty);
  EXPECT_FALSE(pbs.Next().has_value());
}

// ------------------------------------------------------------------- PPS

TEST(PpsTest, UnboundedKmaxCoversEveryGraphEdge) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  PpsOptions options;
  options.kmax = static_cast<std::size_t>(-1);
  PpsEmitter pps(store, blocks, options);
  std::set<Pair> emitted = DistinctPairs(DrainAll(pps));
  std::set<Pair> batch =
      DistinctPairs(DistinctBlockComparisons(blocks, store));
  EXPECT_EQ(emitted, batch);
}

TEST(PpsTest, SmallKmaxTruncatesNeighborhoods) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  PpsOptions options;
  options.kmax = 1;
  PpsEmitter pps(store, blocks, options);
  std::set<Pair> emitted = DistinctPairs(DrainAll(pps));
  std::set<Pair> batch =
      DistinctPairs(DistinctBlockComparisons(blocks, store));
  EXPECT_LE(emitted.size(), batch.size());
  EXPECT_FALSE(emitted.empty());
}

TEST(PpsTest, SortedProfileListIsNonIncreasing) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  PpsEmitter pps(store, blocks);
  const auto& sorted = pps.sorted_profiles();
  for (std::size_t k = 1; k < sorted.size(); ++k) {
    EXPECT_GE(sorted[k - 1].second, sorted[k].second);
  }
}

TEST(PpsTest, CleanCleanEmitsOnlyCrossSourcePairs) {
  ProfileStore store = TinyCleanClean();
  BlockCollection blocks = TokenBlocking(store);
  PpsEmitter pps(store, blocks);
  for (const Comparison& c : DrainAll(pps)) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
  }
}

// ------------------------------------------------------- Workflow / batch

TEST(WorkflowTest, AppliesPurgingAndFiltering) {
  // 20 profiles share the stop token; only pairs also share "k<i>".
  std::vector<Profile> ps(20);
  for (std::size_t i = 0; i < 20; ++i) {
    ps[i].AddAttribute("v", "stopword k" + std::to_string(i / 2));
  }
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  TokenWorkflowOptions options;  // purge > 10% of 20 -> "stopword" dies
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, options);
  for (BlockId id = 0; id < blocks.size(); ++id) {
    EXPECT_NE(blocks.key(id), "stopword");
  }
  EXPECT_EQ(blocks.size(), 10u);  // k0..k9 pair blocks survive
}

TEST(WorkflowTest, StepsCanBeDisabled) {
  std::vector<Profile> ps(20);
  for (std::size_t i = 0; i < 20; ++i) {
    ps[i].AddAttribute("v", "stopword k" + std::to_string(i / 2));
  }
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));
  TokenWorkflowOptions options;
  options.enable_purging = false;
  options.enable_filtering = false;
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, options);
  bool has_stopword = false;
  for (BlockId id = 0; id < blocks.size(); ++id) {
    if (blocks.key(id) == "stopword") has_stopword = true;
  }
  EXPECT_TRUE(has_stopword);
}

TEST(BatchTest, DistinctComparisonsReportsEachPairOnce) {
  ProfileStore store = TinyDirty();
  BlockCollection blocks = TokenBlocking(store);
  std::vector<Comparison> batch = DistinctBlockComparisons(blocks, store);
  std::unordered_set<std::uint64_t> seen;
  for (const Comparison& c : batch) {
    EXPECT_TRUE(seen.insert(PairKey(c.i, c.j)).second);
  }
  EXPECT_EQ(CountDistinctComparisons(blocks, store), batch.size());
}

}  // namespace
}  // namespace sper
