// The parallel runtime (src/parallel/) carries the library's determinism
// contract onto multiple threads: static chunking, per-chunk accumulation,
// ordered merges. These tests pin pool lifecycle, exception propagation and
// the chunking invariants every parallel call site relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace sper {
namespace {

TEST(ThreadPoolTest, ConstructsAndJoinsWithoutWork) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, ZeroThreadsIsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int t = 0; t < 100; ++t) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int t = 0; t < 10; ++t) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&completed] { completed.fetch_add(1); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool survives a throwing task: later batches still run.
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(completed.load(), 3);
}

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

}  // namespace
}  // namespace sper
