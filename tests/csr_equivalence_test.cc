// Equivalence suite for the CSR block layout: every observable output of
// the blocking / meta-blocking / progressive stack must be identical to
// the seed's per-block-vector layout. The seed behavior is encoded here as
// straight-line reference implementations (std::isalnum tokenizer, ordered
// postings map, per-profile block vectors in Block Filtering, legacy
// vector-of-vectors storage, full member scans with a per-element
// IsComparable branch) and compared against the CSR-backed library paths
// — byte-identical keys and members, bitwise-identical edge weights for
// all five weighting schemes, and identical PPS/PBS emission prefixes —
// for Dirty and Clean-Clean ER at 1/2/4/8 threads. PPS's full emission is
// also compared with a straight-line Algorithm 6 whose SortedStack is a
// bounded std::priority_queue, on all seven generators, and every PPS
// refill batch is shown not to depend on which batches its scratch
// produced before.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <queue>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/profile_index.h"
#include "blocking/token_blocking.h"
#include "core/tokenizer.h"
#include "datagen/datagen.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/edge_weighting.h"
#include "progressive/batch.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/workflow.h"

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

/// The seed's block storage: one heap vector per block.
struct LegacyBlock {
  std::string key;
  std::vector<ProfileId> profiles;
};

std::vector<LegacyBlock> ToLegacy(const BlockCollection& blocks) {
  std::vector<LegacyBlock> out(blocks.size());
  for (BlockId b = 0; b < blocks.size(); ++b) {
    std::span<const ProfileId> members = blocks.members(b);
    out[b].key = std::string(blocks.key(b));
    out[b].profiles.assign(members.begin(), members.end());
  }
  return out;
}

// ------------------------------------------------- block build equivalence

/// Seed-style tokenizer: std::isalnum / std::tolower under the default "C"
/// locale, then sort + unique per profile.
std::vector<std::string> ReferenceDistinctTokens(
    const Profile& p, const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty() && current.size() >= options.min_token_length) {
      tokens.push_back(current);
    }
    current.clear();
  };
  for (const Attribute& a : p.attributes()) {
    for (unsigned char c : a.value) {
      if (std::isalnum(c) != 0) {
        current.push_back(options.lowercase
                              ? static_cast<char>(std::tolower(c))
                              : static_cast<char>(c));
      } else {
        flush();
      }
    }
    flush();
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

/// Seed-style sequential token blocking: ordered postings map, profiles in
/// id order, zero-cardinality keys dropped.
std::vector<LegacyBlock> ReferenceTokenBlocking(
    const ProfileStore& store, const TokenizerOptions& tokenizer) {
  std::map<std::string, std::vector<ProfileId>> postings;
  for (const Profile& p : store.profiles()) {
    for (const std::string& token : ReferenceDistinctTokens(p, tokenizer)) {
      postings[token].push_back(p.id());
    }
  }
  BlockCollection geometry(store.er_type(), store.split_index());
  std::vector<LegacyBlock> out;
  for (const auto& [key, ids] : postings) {
    if (geometry.ComputeCardinality(ids) == 0) continue;
    out.push_back({key, ids});
  }
  return out;
}

/// Seed-style Block Filtering: one heap vector of block ids per profile,
/// ranked by (|b|, id), cut to its ceil(ratio*|B_i|) smallest, then
/// membership tested by binary search.
std::vector<LegacyBlock> ReferenceBlockFiltering(const BlockCollection& input,
                                                 double ratio) {
  ProfileId num_profiles = 0;
  for (ProfileId p : input.all_members()) {
    num_profiles = std::max(num_profiles, p + 1);
  }
  std::vector<std::vector<BlockId>> profile_blocks(num_profiles);
  for (BlockId b = 0; b < input.size(); ++b) {
    for (ProfileId p : input.members(b)) profile_blocks[p].push_back(b);
  }
  for (std::vector<BlockId>& blocks : profile_blocks) {
    std::sort(blocks.begin(), blocks.end(), [&](BlockId a, BlockId b) {
      const std::size_t sa = input.block_size(a);
      const std::size_t sb = input.block_size(b);
      if (sa != sb) return sa < sb;
      return a < b;
    });
    const std::size_t retained = static_cast<std::size_t>(
        std::ceil(ratio * static_cast<double>(blocks.size())));
    if (retained < blocks.size()) blocks.resize(retained);
    std::sort(blocks.begin(), blocks.end());
  }
  std::vector<LegacyBlock> out;
  for (BlockId b = 0; b < input.size(); ++b) {
    LegacyBlock block{std::string(input.key(b)), {}};
    for (ProfileId p : input.members(b)) {
      if (std::binary_search(profile_blocks[p].begin(),
                             profile_blocks[p].end(), b)) {
        block.profiles.push_back(p);
      }
    }
    if (input.ComputeCardinality(block.profiles) == 0) continue;
    out.push_back(std::move(block));
  }
  return out;
}

/// Keys, members and order equal the reference; every split point sits
/// exactly at the store's source boundary.
void ExpectSameBlocks(const BlockCollection& blocks,
                      const std::vector<LegacyBlock>& reference,
                      const ProfileStore& store) {
  ASSERT_EQ(blocks.size(), reference.size());
  for (BlockId b = 0; b < blocks.size(); ++b) {
    ASSERT_EQ(blocks.key(b), reference[b].key);
    std::span<const ProfileId> members = blocks.members(b);
    ASSERT_TRUE(std::equal(members.begin(), members.end(),
                           reference[b].profiles.begin(),
                           reference[b].profiles.end()))
        << "block " << b << " (" << reference[b].key << ")";
    for (ProfileId p : blocks.source1(b)) EXPECT_TRUE(store.InSource1(p));
    for (ProfileId p : blocks.source2(b)) EXPECT_FALSE(store.InSource1(p));
    EXPECT_EQ(blocks.source1(b).size() + blocks.source2(b).size(),
              blocks.block_size(b));
  }
}

class CsrEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(CsrEquivalenceTest, TokenBlockingMatchesReferenceByteForByte) {
  // Every generator of this ER type at a small scale, under the default
  // tokenizer, with case kept, and with a minimum token length of 3.
  using Scaled = std::pair<const char*, double>;
  const std::vector<Scaled> datasets =
      GetParam() ? std::vector<Scaled>{{"movies", 0.05},
                                       {"dbpedia", 0.02},
                                       {"freebase", 0.05}}
                 : std::vector<Scaled>{{"restaurant", 0.5},
                                       {"census", 0.5},
                                       {"cora", 0.5},
                                       {"cddb", 0.1}};
  TokenizerOptions keep_case;
  keep_case.lowercase = false;
  TokenizerOptions min_length_3;
  min_length_3.min_token_length = 3;
  for (const auto& [name, scale] : datasets) {
    DatagenOptions gen;
    gen.scale = scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    ASSERT_TRUE(dataset.ok()) << name;
    const ProfileStore& store = dataset.value().store;
    for (const TokenizerOptions& tokenizer :
         {TokenizerOptions{}, keep_case, min_length_3}) {
      const std::vector<LegacyBlock> reference =
          ReferenceTokenBlocking(store, tokenizer);
      TokenBlockingOptions options;
      options.tokenizer = tokenizer;
      // Chunk-local interning gives the same blocks at every count,
      // including counts that do not divide the profile count evenly.
      for (std::size_t num_threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::string(name) + " lowercase=" +
                     std::to_string(tokenizer.lowercase) + " min_length=" +
                     std::to_string(tokenizer.min_token_length) + " @ " +
                     std::to_string(num_threads) + " threads");
        const BlockCollection blocks =
            TokenBlocking(store, options, num_threads);
        ASSERT_FALSE(blocks.empty());
        ExpectSameBlocks(blocks, reference, store);
      }
    }
  }

  // More threads than profiles: one profile per chunk. No profiles: no
  // chunk and no block.
  std::vector<Profile> three(3);
  three[0].AddAttribute("name", "carl white");
  three[1].AddAttribute("name", "Carl");
  three[2].AddAttribute("title", "white carl");
  const ProfileStore small =
      GetParam() ? ProfileStore::MakeCleanClean(
                       {three[0]}, {three[1], three[2]})
                 : ProfileStore::MakeDirty(three);
  const BlockCollection blocks = TokenBlocking(small, {}, 8);
  ASSERT_FALSE(blocks.empty());
  ExpectSameBlocks(blocks, ReferenceTokenBlocking(small, {}), small);
  const ProfileStore empty = GetParam()
                                 ? ProfileStore::MakeCleanClean({}, {})
                                 : ProfileStore::MakeDirty({});
  EXPECT_TRUE(TokenBlocking(empty, {}, 8).empty());
}

TEST_P(CsrEquivalenceTest, BlockFilteringMatchesReferenceByteForByte) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection purged =
      BlockPurging(TokenBlocking(store), store.size());
  // 0 keeps no profile anywhere and >= 1 keeps every block whole.
  for (double ratio : {0.0, 0.5, 0.8, 1.0, 1.5}) {
    const std::vector<LegacyBlock> reference =
        ReferenceBlockFiltering(purged, ratio);
    for (std::size_t num_threads : {1u, 4u}) {
      SCOPED_TRACE("ratio " + std::to_string(ratio) + " @ " +
                   std::to_string(num_threads) + " threads");
      BlockFilteringOptions options;
      options.ratio = ratio;
      options.num_threads = num_threads;
      ExpectSameBlocks(BlockFiltering(purged, options), reference, store);
    }
  }
}

// ----------------------------------------------- edge-weight equivalence

/// Seed-style neighborhood gather for one profile: full member scan with
/// the per-element comparability branch.
template <typename Fn>
void ReferenceGather(ProfileId i, const std::vector<LegacyBlock>& blocks,
                     const ProfileIndex& index, const ProfileStore& store,
                     const EdgeWeighter& weighter, Fn&& fn) {
  std::vector<double> weights(store.size(), 0.0);
  std::vector<ProfileId> touched;
  for (BlockId b : index.BlocksOf(i)) {
    const double share = weighter.BlockContribution(b);
    for (ProfileId j : blocks[b].profiles) {
      if (j == i || !store.IsComparable(i, j)) continue;
      if (weights[j] == 0.0) touched.push_back(j);
      weights[j] += share;
    }
  }
  for (ProfileId j : touched) fn(j, weights[j]);
}

TEST_P(CsrEquivalenceTest, BlockingGraphMatchesReferenceForAllSchemes) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  const ProfileIndex index(blocks, store.size());
  const std::vector<LegacyBlock> legacy = ToLegacy(blocks);

  for (WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
        WeightingScheme::kEcbs, WeightingScheme::kEjs}) {
    const EdgeWeighter weighter(blocks, index, store, scheme);
    // Reference edges from the seed-style gather (smaller endpoint only).
    std::vector<Comparison> expected;
    for (ProfileId i = 0; i < store.size(); ++i) {
      ReferenceGather(i, legacy, index, store, weighter,
                      [&](ProfileId j, double accumulated) {
                        if (i < j) {
                          expected.emplace_back(
                              i, j, weighter.Finalize(i, j, accumulated));
                        }
                      });
    }
    std::sort(expected.begin(), expected.end(),
              [](const Comparison& a, const Comparison& b) {
                if (a.i != b.i) return a.i < b.i;
                return a.j < b.j;
              });

    for (std::size_t num_threads : {1u, 2u, 4u, 8u}) {
      const BlockingGraph graph =
          BlockingGraph::Build(blocks, index, store, scheme, num_threads);
      ASSERT_EQ(graph.num_edges(), expected.size())
          << ToString(scheme) << " @ " << num_threads << " threads";
      for (std::size_t e = 0; e < expected.size(); ++e) {
        ASSERT_EQ(graph.edges()[e].i, expected[e].i);
        ASSERT_EQ(graph.edges()[e].j, expected[e].j);
        // Same contributions added in the same order: bitwise equal.
        ASSERT_EQ(graph.edges()[e].weight, expected[e].weight)
            << ToString(scheme) << " edge " << e;
      }
    }
  }
}

// ------------------------------------------------ PPS / PBS equivalence

/// A store where profile 5 shares a token with every other profile, and a
/// second one with every third, so it alone does half of all gather work:
/// the most one profile can, as each pair is scanned from both ends.
ProfileStore SkewedStore(bool clean_clean) {
  constexpr std::size_t kProfiles = 64, kHeavy = 5, kSource1 = 16;
  std::vector<Profile> profiles(kProfiles);
  std::string links;
  for (std::size_t j = 0; j < kProfiles; ++j) {
    if (j == kHeavy) continue;
    std::string value = "t" + std::to_string(j);
    if (j % 3 == 0) value += " u" + std::to_string(j);
    profiles[j].AddAttribute("name", value);
    links += " " + value;
  }
  profiles[kHeavy].AddAttribute("links", links);
  if (!clean_clean) return ProfileStore::MakeDirty(std::move(profiles));
  std::vector<Profile> source2(profiles.begin() + kSource1, profiles.end());
  profiles.resize(kSource1);
  return ProfileStore::MakeCleanClean(std::move(profiles), std::move(source2));
}

/// PPS's Sorted Profile List equals seed Algorithm 5 bitwise at 1, 2, 4
/// and 8 threads.
void ExpectPpsInitMatchesReference(const ProfileStore& store,
                                   const BlockCollection& blocks) {
  const ProfileIndex index(blocks, store.size());
  const std::vector<LegacyBlock> legacy = ToLegacy(blocks);
  const EdgeWeighter weighter(blocks, index, store,
                              WeightingScheme::kArcs);

  // Seed Algorithm 5: duplication likelihood = mean incident edge weight,
  // computed with the legacy full-scan gather.
  std::vector<std::pair<ProfileId, double>> expected;
  for (ProfileId i = 0; i < store.size(); ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    ReferenceGather(i, legacy, index, store, weighter,
                    [&](ProfileId j, double accumulated) {
                      sum += weighter.Finalize(i, j, accumulated);
                      ++count;
                    });
    if (count > 0) {
      expected.emplace_back(i, sum / static_cast<double>(count));
    }
  }
  ASSERT_FALSE(expected.empty());
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  for (std::size_t num_threads : {1u, 2u, 4u, 8u}) {
    PpsOptions options;
    options.num_threads = num_threads;
    PpsEmitter pps(store, blocks, options);
    ASSERT_EQ(pps.sorted_profiles().size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(pps.sorted_profiles()[k].first, expected[k].first)
          << num_threads << " threads, rank " << k;
      // Identical additions in identical order: bitwise equal.
      ASSERT_EQ(pps.sorted_profiles()[k].second, expected[k].second);
    }
  }
}

TEST_P(CsrEquivalenceTest, PpsInitMatchesReferenceBitwise) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  ExpectPpsInitMatchesReference(store, BuildTokenWorkflowBlocks(store, {}));
  // Ranges of equal gather work differ widely in profile count here.
  const ProfileStore skewed = SkewedStore(GetParam());
  ExpectPpsInitMatchesReference(skewed, TokenBlocking(skewed));
}

template <typename Emitter>
std::vector<Comparison> Drain(Emitter& emitter, std::size_t limit) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter.Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

TEST_P(CsrEquivalenceTest, PpsEmissionPrefixIsThreadCountInvariant) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});

  PpsOptions reference_options;
  reference_options.num_threads = 1;
  PpsEmitter reference(store, blocks, reference_options);
  const std::vector<Comparison> expected = Drain(reference, 500);
  EXPECT_FALSE(expected.empty());

  for (std::size_t num_threads : {2u, 4u, 8u}) {
    PpsOptions options;
    options.num_threads = num_threads;
    PpsEmitter pps(store, blocks, options);
    const std::vector<Comparison> got = Drain(pps, 500);
    ASSERT_EQ(got.size(), expected.size()) << num_threads << " threads";
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(got[k].SamePair(expected[k]))
          << num_threads << " threads, emission " << k;
      ASSERT_EQ(got[k].weight, expected[k].weight);
    }
  }
}

TEST_P(CsrEquivalenceTest, PbsEmissionPrefixIsThreadCountInvariant) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});

  PbsOptions reference_options;
  reference_options.num_threads = 1;
  PbsEmitter reference(store, blocks, reference_options);
  const std::vector<Comparison> expected = Drain(reference, 500);
  EXPECT_FALSE(expected.empty());

  // LeCoBI guarantee: no emitted pair repeats.
  std::unordered_set<std::uint64_t> seen;
  for (const Comparison& c : expected) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
    EXPECT_TRUE(seen.insert(PairKey(c.i, c.j)).second);
  }

  for (std::size_t num_threads : {2u, 4u, 8u}) {
    PbsOptions options;
    options.num_threads = num_threads;
    PbsEmitter pbs(store, blocks, options);
    const std::vector<Comparison> got = Drain(pbs, 500);
    ASSERT_EQ(got.size(), expected.size()) << num_threads << " threads";
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(got[k].SamePair(expected[k]))
          << num_threads << " threads, emission " << k;
      ASSERT_EQ(got[k].weight, expected[k].weight);
    }
  }
}

TEST_P(CsrEquivalenceTest, ForEachComparisonMatchesScanAndTest) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = TokenBlocking(store);
  for (BlockId b = 0; b < std::min<std::size_t>(blocks.size(), 200); ++b) {
    // Seed semantics: all sorted pairs, filtered by IsComparable.
    std::span<const ProfileId> ps = blocks.members(b);
    std::vector<std::pair<ProfileId, ProfileId>> expected;
    for (std::size_t x = 0; x < ps.size(); ++x) {
      for (std::size_t y = x + 1; y < ps.size(); ++y) {
        if (store.IsComparable(ps[x], ps[y])) {
          expected.emplace_back(ps[x], ps[y]);
        }
      }
    }
    std::vector<std::pair<ProfileId, ProfileId>> got;
    blocks.ForEachComparison(b, [&](ProfileId i, ProfileId j) {
      got.emplace_back(i, j);
    });
    ASSERT_EQ(got, expected) << "block " << b;
    ASSERT_EQ(got.size(), blocks.Cardinality(b));
  }
}

INSTANTIATE_TEST_SUITE_P(DirtyAndCleanClean, CsrEquivalenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CleanClean" : "Dirty";
                         });

// ------------------------------------------- PPS emission vs Algorithm 6

/// The seed's SortedStack order: a min-heap under ByWeightAsc, the worst
/// kept comparison on top.
struct WorstOnTop {
  bool operator()(const Comparison& a, const Comparison& b) const {
    return ByWeightAsc()(b, a);
  }
};

/// Seed-style Algorithm 6, straight-line: batch 0, then every profile of
/// the Sorted Profile List in order with one shared checkedEntities
/// vector, the legacy full-scan gather, and a std::priority_queue bounded
/// at kmax, drained worst first and then reversed.
std::vector<Comparison> ReferencePpsEmission(
    const PpsEmitter& pps, const ProfileStore& store,
    const BlockCollection& blocks, WeightingScheme scheme, std::size_t kmax) {
  const ProfileIndex index(blocks, store.size());
  const std::vector<LegacyBlock> legacy = ToLegacy(blocks);
  const EdgeWeighter weighter(blocks, index, store, scheme);
  std::vector<double> weights(store.size(), 0.0);
  std::vector<ProfileId> touched;

  // Batch 0, Algorithm 5's topComparisonsSet: every node's ByWeightDesc
  // maximum over the legacy gather of all its neighbors, compared one
  // neighbor at a time. A pair that is the top of both its ends is kept
  // once, as the smaller id found it, and the set is sorted.
  std::vector<Comparison> emitted;
  std::unordered_set<std::uint64_t> seen;
  for (ProfileId i = 0; i < store.size(); ++i) {
    for (BlockId b : index.BlocksOf(i)) {
      const double share = weighter.BlockContribution(b);
      for (ProfileId j : legacy[b].profiles) {
        if (j == i || !store.IsComparable(i, j)) continue;
        if (weights[j] == 0.0) touched.push_back(j);
        weights[j] += share;
      }
    }
    std::optional<Comparison> top;
    for (ProfileId j : touched) {
      const Comparison candidate(i, j, weighter.Finalize(i, j, weights[j]));
      if (!top.has_value() || ByWeightDesc()(candidate, *top)) {
        top = candidate;
      }
      weights[j] = 0.0;
    }
    touched.clear();
    if (top.has_value() && seen.insert(PairKey(top->i, top->j)).second) {
      emitted.push_back(*top);
    }
  }
  std::sort(emitted.begin(), emitted.end(), ByWeightDesc());

  std::vector<bool> checked(store.size(), false);
  for (const auto& [i, likelihood] : pps.sorted_profiles()) {
    checked[i] = true;
    for (BlockId b : index.BlocksOf(i)) {
      const double share = weighter.BlockContribution(b);
      for (ProfileId j : legacy[b].profiles) {
        if (j == i || checked[j] || !store.IsComparable(i, j)) continue;
        if (weights[j] == 0.0) touched.push_back(j);
        weights[j] += share;
      }
    }
    std::priority_queue<Comparison, std::vector<Comparison>, WorstOnTop>
        stack;
    for (ProfileId j : touched) {
      stack.push(Comparison(i, j, weighter.Finalize(i, j, weights[j])));
      if (stack.size() > kmax) stack.pop();
      weights[j] = 0.0;
    }
    touched.clear();
    std::vector<Comparison> ascending;
    while (!stack.empty()) {
      ascending.push_back(stack.top());
      stack.pop();
    }
    emitted.insert(emitted.end(), ascending.rbegin(), ascending.rend());
  }
  return emitted;
}

struct Generator {
  const char* name;
  double scale;  // determinism_test's: small enough for full drains
};

void PrintTo(const Generator& generator, std::ostream* os) {
  *os << generator.name << " at scale " << generator.scale;
}

class PpsReferenceTest : public ::testing::TestWithParam<Generator> {};

TEST_P(PpsReferenceTest, PpsEmissionMatchesReferenceBitwise) {
  DatagenOptions gen;
  gen.scale = GetParam().scale;
  Result<DatasetBundle> dataset = GenerateDataset(GetParam().name, gen);
  ASSERT_TRUE(dataset.ok());
  const ProfileStore& store = dataset.value().store;
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  for (WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
        WeightingScheme::kEcbs, WeightingScheme::kEjs}) {
    for (std::size_t kmax : {std::size_t{1}, std::size_t{2},
                             std::size_t{100}, std::size_t{SIZE_MAX}}) {
      SCOPED_TRACE(std::string("scheme ") + ToString(scheme) + ", kmax " +
                   std::to_string(kmax));
      // One reference, from the one-thread build's Sorted Profile List,
      // for the builds at 1 and 4 threads: the 4-thread build dedups and
      // sorts its lists on the threads.
      std::vector<Comparison> expected;
      for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::to_string(num_threads) + " threads");
        PpsOptions options;
        options.scheme = scheme;
        options.kmax = kmax;
        options.num_threads = num_threads;
        PpsEmitter pps(store, blocks, options);
        if (expected.empty()) {
          expected = ReferencePpsEmission(pps, store, blocks, scheme, kmax);
        }
        const std::vector<Comparison> got =
            Drain(pps, std::numeric_limits<std::size_t>::max());
        ASSERT_GT(expected.size(), 0u);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k) {
          ASSERT_TRUE(got[k].SamePair(expected[k])) << "emission " << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k].weight),
                    std::bit_cast<std::uint64_t>(expected[k].weight))
              << "emission " << k;
        }
      }
    }
  }
}

/// Every refill batch of `pps`, each produced into a list of its own on
/// `scratch`, in the order `indices` gives; indexed by batch.
std::vector<std::vector<Comparison>> ProduceBatches(
    const PpsEmitter& pps, BatchSource::Scratch& scratch,
    const std::vector<std::size_t>& indices) {
  std::vector<std::vector<Comparison>> batches(pps.num_refills());
  for (std::size_t index : indices) {
    ComparisonList list;
    pps.AppendRefill(index, scratch, list);
    while (!list.Empty()) batches[index].push_back(list.PopFirst());
  }
  return batches;
}

TEST_P(PpsReferenceTest, RefillBatchesDoNotDependOnTheScratchHistory) {
  // BatchSource promises that a batch is a pure function of the built
  // state and its index. The pipeline's workers only walk forward, so
  // replay every batch on one scratch in shuffled and in descending
  // order: each step back must reset what the scratch holds (the checked
  // prefix and the accumulator) and give the forward walk's batch.
  DatagenOptions gen;
  gen.scale = GetParam().scale;
  Result<DatasetBundle> dataset = GenerateDataset(GetParam().name, gen);
  ASSERT_TRUE(dataset.ok());
  const ProfileStore& store = dataset.value().store;
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  for (WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
        WeightingScheme::kEcbs, WeightingScheme::kEjs}) {
    SCOPED_TRACE(std::string("scheme ") + ToString(scheme));
    PpsOptions options;
    options.scheme = scheme;
    const PpsEmitter pps(store, blocks, options);
    std::vector<std::size_t> forward(pps.num_refills());
    std::iota(forward.begin(), forward.end(), std::size_t{0});
    const std::vector<std::vector<Comparison>> expected =
        ProduceBatches(pps, *pps.NewScratch(), forward);

    std::vector<std::size_t> shuffled = forward;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(1));
    const std::vector<std::size_t> descending(forward.rbegin(),
                                              forward.rend());
    for (const auto& [order, indices] :
         {std::pair<const char*, const std::vector<std::size_t>&>{
              "shuffled", shuffled},
          std::pair<const char*, const std::vector<std::size_t>&>{
              "descending", descending}}) {
      SCOPED_TRACE(order);
      const std::vector<std::vector<Comparison>> got =
          ProduceBatches(pps, *pps.NewScratch(), indices);
      for (std::size_t index = 0; index < expected.size(); ++index) {
        ASSERT_EQ(got[index].size(), expected[index].size())
            << "batch " << index;
        for (std::size_t k = 0; k < expected[index].size(); ++k) {
          ASSERT_TRUE(got[index][k].SamePair(expected[index][k]))
              << "batch " << index << ", comparison " << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[index][k].weight),
                    std::bit_cast<std::uint64_t>(expected[index][k].weight))
              << "batch " << index << ", comparison " << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryGenerator, PpsReferenceTest,
    ::testing::Values(Generator{"census", 1.0}, Generator{"restaurant", 1.0},
                      Generator{"cora", 1.0}, Generator{"cddb", 0.1},
                      Generator{"movies", 0.03}, Generator{"dbpedia", 0.02},
                      Generator{"freebase", 0.02}),
    [](const ::testing::TestParamInfo<Generator>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sper
