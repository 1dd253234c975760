// The parallel runtime (src/parallel/) carries the library's determinism
// contract onto multiple threads: static chunking, per-chunk accumulation,
// ordered merges. These tests pin fork-join exception propagation, the
// chunking invariants every parallel call site relies on, and the
// fork-join sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"

namespace sper {
namespace {

TEST(StaticChunksTest, CoversRangeWithBalancedContiguousChunks) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u, 13u}) {
      const std::vector<IndexRange> chunks = StaticChunks(n, threads);
      if (n == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(chunks.size(), std::min(n, threads));
      std::size_t expected_begin = 0;
      std::size_t min_size = n, max_size = 0;
      for (const IndexRange& range : chunks) {
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_GT(range.size(), 0u);
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(StaticChunksTest, DependsOnlyOnSizeAndThreadCount) {
  const std::vector<IndexRange> a = StaticChunks(1234, 7);
  const std::vector<IndexRange> b = StaticChunks(1234, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].begin, b[c].begin);
    EXPECT_EQ(a[c].end, b[c].end);
  }
}

/// The ranges are non-empty, contiguous, cover [0, work.size()) exactly
/// and number at most `parts`.
void ExpectTiling(const std::vector<IndexRange>& ranges, std::size_t n,
                  std::size_t parts) {
  EXPECT_LE(ranges.size(), std::max<std::size_t>(parts, 1));
  std::size_t expected_begin = 0;
  for (const IndexRange& range : ranges) {
    EXPECT_EQ(range.begin, expected_begin);
    EXPECT_GT(range.size(), 0u);
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, n);
}

std::uint64_t WorkOf(const std::vector<std::uint64_t>& work,
                     IndexRange range) {
  return std::accumulate(work.begin() + range.begin,
                         work.begin() + range.end, std::uint64_t{0});
}

TEST(BalancedChunksTest, TilesTheRangeForEveryShape) {
  const std::vector<std::vector<std::uint64_t>> shapes = {
      {},
      {7},
      {0, 0, 0, 0, 0},
      {1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
      {0, 0, 1000, 0, 0, 1, 1, 1},
  };
  for (const std::vector<std::uint64_t>& work : shapes) {
    for (std::size_t parts : {0u, 1u, 2u, 3u, 4u, 8u, 13u, 64u}) {
      SCOPED_TRACE(std::to_string(work.size()) + " items, " +
                   std::to_string(parts) + " parts");
      const std::vector<IndexRange> ranges = BalancedChunks(work, parts);
      ExpectTiling(ranges, work.size(), parts);
      // Same arguments, same split.
      const std::vector<IndexRange> again = BalancedChunks(work, parts);
      ASSERT_EQ(again.size(), ranges.size());
      for (std::size_t c = 0; c < ranges.size(); ++c) {
        EXPECT_EQ(again[c].begin, ranges[c].begin);
        EXPECT_EQ(again[c].end, ranges[c].end);
      }
    }
  }
}

TEST(BalancedChunksTest, EqualWorkSplitsLikeStaticChunks) {
  const std::vector<std::uint64_t> work(1000, 3);
  for (std::size_t parts : {1u, 2u, 4u, 8u}) {
    const std::vector<IndexRange> ranges = BalancedChunks(work, parts);
    ASSERT_EQ(ranges.size(), parts);
    for (const IndexRange& range : ranges) {
      EXPECT_EQ(range.size(), 1000 / parts);
    }
  }
}

TEST(BalancedChunksTest, OneHeavyItemEndsItsRange) {
  // Item 10 holds 3/4 of the work: the first range ends right after it,
  // and the light items after it share the remaining parts.
  std::vector<std::uint64_t> work(100, 1);
  work[10] = 300;
  const std::vector<IndexRange> ranges = BalancedChunks(work, 4);
  ExpectTiling(ranges, work.size(), 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].end, 11u);
  EXPECT_EQ(WorkOf(work, ranges[0]), 310u);
  EXPECT_EQ(WorkOf(work, ranges[1]), 89u);
}

TEST(BalancedChunksTest, RangesHoldAboutEqualWork) {
  // Work rises linearly, so equal-work ranges shrink along the index.
  std::vector<std::uint64_t> work(1000);
  std::iota(work.begin(), work.end(), std::uint64_t{1});
  const std::uint64_t total = WorkOf(work, {0, work.size()});
  const std::vector<IndexRange> ranges = BalancedChunks(work, 4);
  ASSERT_EQ(ranges.size(), 4u);
  for (std::size_t c = 1; c < ranges.size(); ++c) {
    EXPECT_LT(ranges[c].size(), ranges[c - 1].size());
  }
  for (const IndexRange& range : ranges) {
    // Within one item's work (at most 1000) of a quarter of the total.
    EXPECT_LE(WorkOf(work, range), total / 4 + 1000);
    EXPECT_GE(WorkOf(work, range) + 1000, total / 4);
  }
}

TEST(BalancedChunksTest, ZeroWorkIsOneRange) {
  const std::vector<std::uint64_t> work(50, 0);
  const std::vector<IndexRange> ranges = BalancedChunks(work, 4);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 50u);
}

TEST(BalancedChunksTest, MorePartsThanItems) {
  const std::vector<std::uint64_t> work = {5, 1, 9};
  const std::vector<IndexRange> ranges = BalancedChunks(work, 8);
  ExpectTiling(ranges, work.size(), 8);
  EXPECT_LE(ranges.size(), work.size());
}

TEST(ParallelForRangesTest, RunsEveryRangeOnceWithItsIndex) {
  std::vector<std::uint64_t> work(997, 1);
  work[500] = 5000;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::vector<IndexRange> ranges = BalancedChunks(work, threads);
    std::vector<IndexRange> seen(ranges.size());
    std::vector<int> visits(work.size(), 0);
    ParallelForRanges(ranges, [&](std::size_t chunk, IndexRange range) {
      seen[chunk] = range;
      for (std::size_t i = range.begin; i < range.end; ++i) ++visits[i];
    });
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(seen[c].begin, ranges[c].begin);
      EXPECT_EQ(seen[c].end, ranges[c].end);
    }
    for (int v : visits) ASSERT_EQ(v, 1) << "threads " << threads;
  }
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::size_t n = 997;  // prime: uneven chunks
    std::vector<int> visits(n, 0);
    ParallelFor(n, threads, [&](std::size_t i) { ++visits[i]; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
              static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, ResultMatchesSequentialComputation) {
  const std::size_t n = 500;
  std::vector<std::uint64_t> serial(n), parallel(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = i * i + 7;
  ParallelFor(n, 4, [&](std::size_t i) { parallel[i] = i * i + 7; });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, PropagatesChunkException) {
  EXPECT_THROW(
      ParallelFor(100, 4,
                  [](std::size_t i) {
                    if (i == 42) throw std::runtime_error("bad index");
                  }),
      std::runtime_error);
}

TEST(ParallelForRangesTest, RethrowsTheLowestRangesExceptionAfterEveryRange) {
  // Range 3 throws first; range 1 throws only once it has seen range 3
  // throw. The caller still gets range 1's exception, and only after every
  // range ran to its end.
  const std::vector<IndexRange> ranges = StaticChunks(5, 5);
  ASSERT_EQ(ranges.size(), 5u);
  std::atomic<bool> range3_threw{false};
  std::atomic<int> finished{0};
  try {
    ParallelForRanges(ranges, [&](std::size_t chunk, IndexRange /*range*/) {
      if (chunk == 3) {
        finished.fetch_add(1);
        range3_threw.store(true);
        throw std::runtime_error("range 3");
      }
      if (chunk == 1) {
        while (!range3_threw.load()) std::this_thread::yield();
        finished.fetch_add(1);
        throw std::runtime_error("range 1");
      }
      finished.fetch_add(1);
    });
    FAIL() << "no exception propagated";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "range 1");
  }
  EXPECT_EQ(finished.load(), 5);
}

TEST(ParallelForChunksTest, ChunkIndicesMatchStaticChunks) {
  const std::size_t n = 103;
  for (std::size_t threads : {1u, 3u, 8u}) {
    const std::vector<IndexRange> expected = StaticChunks(n, threads);
    std::vector<IndexRange> seen(expected.size());
    ParallelForChunks(n, threads, [&](std::size_t chunk, IndexRange range) {
      seen[chunk] = range;
    });
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(seen[c].begin, expected[c].begin);
      EXPECT_EQ(seen[c].end, expected[c].end);
    }
  }
}

TEST(AccumulateOrderedTest, MergeOrderIsThreadCountInvariant) {
  const std::size_t n = 1000;
  // Sequential reference: every index contributes (i, 3i) in order.
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < n; ++i) expected.emplace_back(i, 3 * i);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto merged = AccumulateOrdered(
        n, threads, [](std::size_t /*chunk*/, IndexRange range) {
          std::vector<std::pair<std::size_t, std::size_t>> part;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            part.emplace_back(i, 3 * i);
          }
          return part;
        });
    EXPECT_EQ(merged, expected) << "threads " << threads;
  }
}

/// `n` seeded keys from a small range, so most of them tie.
std::vector<int> TiedKeys(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> key(0, static_cast<int>(n / 8));
  std::vector<int> keys(n);
  for (int& k : keys) k = key(rng);
  return keys;
}

TEST(ParallelSortTest, EqualsStdSortOnTiedKeys) {
  // Equal ints cannot be told apart, so every correct sort agrees.
  for (std::size_t n : {0u, 1u, 2u, 7u, 100u, 1001u, 40000u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<int> input = TiedKeys(n, seed);
      std::vector<int> expected = input;
      std::sort(expected.begin(), expected.end());
      for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        std::vector<int> got = input;
        ParallelSort(std::span(got), threads, std::less<int>());
        EXPECT_EQ(got, expected)
            << "n " << n << ", seed " << seed << ", threads " << threads;
      }
    }
  }
}

TEST(ParallelSortTest, TotalOrderMatchesStableSortOfTheKeys) {
  // Ties on the key broken by input position form a total order, whose
  // one sorted sequence is std::stable_sort's by key alone: the merge
  // rounds must neither drop nor reorder any element.
  for (std::size_t n : {5u, 999u, 40000u}) {
    for (std::uint64_t seed : {4u, 5u}) {
      const std::vector<int> keys = TiedKeys(n, seed);
      std::vector<std::pair<int, std::size_t>> input;
      for (std::size_t i = 0; i < n; ++i) input.emplace_back(keys[i], i);
      std::vector<std::pair<int, std::size_t>> expected = input;
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        std::vector<std::pair<int, std::size_t>> got = input;
        ParallelSort(std::span(got), threads,
                     std::less<std::pair<int, std::size_t>>());
        EXPECT_EQ(got, expected)
            << "n " << n << ", seed " << seed << ", threads " << threads;
      }
    }
  }
}

TEST(ParallelSortTest, MergeSplitFollowsStdMergesTieRule) {
  // For every prefix length k of a merge with ties, MergeSplit's count
  // from `a` is exactly the a-elements among std::merge's first k.
  const std::vector<std::pair<int, char>> a = {
      {1, 'a'}, {2, 'a'}, {2, 'a'}, {4, 'a'}, {7, 'a'}};
  const std::vector<std::pair<int, char>> b = {
      {0, 'b'}, {2, 'b'}, {4, 'b'}, {4, 'b'}, {9, 'b'}};
  const auto by_key = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  std::vector<std::pair<int, char>> merged;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged), by_key);
  auto less = by_key;
  for (std::size_t k = 0; k <= merged.size(); ++k) {
    const std::size_t from_a = static_cast<std::size_t>(
        std::count_if(merged.begin(), merged.begin() + k,
                      [](const auto& x) { return x.second == 'a'; }));
    EXPECT_EQ(MergeSplit(std::span<const std::pair<int, char>>(a),
                         std::span<const std::pair<int, char>>(b), k, less),
              from_a)
        << "k " << k;
  }
}

}  // namespace
}  // namespace sper
