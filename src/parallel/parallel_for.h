#ifndef SPER_PARALLEL_PARALLEL_FOR_H_
#define SPER_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

/// \file parallel_for.h
/// Deterministic data-parallel loops. ParallelFor splits an index range
/// into `num_threads` contiguous chunks with *static* chunking: chunk
/// boundaries depend only on (range size, num_threads), never on timing.
/// Call sites that accumulate per chunk and merge in chunk order therefore
/// produce bit-identical results at every thread count — the invariant the
/// whole library's determinism contract rests on (see
/// tests/determinism_test.cc, ThreadCountInvariance). Each loop is one
/// fork-join: a thread per chunk past the first, joined before it returns.

namespace sper {

/// A contiguous half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

/// The static chunking used by ParallelFor: `n` items split into at most
/// `num_chunks` contiguous ranges whose sizes differ by at most one, in
/// index order. Exposed so call sites can pre-size per-chunk accumulators
/// and merge them deterministically.
inline std::vector<IndexRange> StaticChunks(std::size_t n,
                                            std::size_t num_chunks) {
  if (num_chunks == 0) num_chunks = 1;
  std::vector<IndexRange> chunks;
  if (n == 0) return chunks;
  if (num_chunks > n) num_chunks = n;
  const std::size_t base = n / num_chunks;
  const std::size_t remainder = n % num_chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t size = base + (c < remainder ? 1 : 0);
    chunks.push_back({begin, begin + size});
    begin += size;
  }
  return chunks;
}

/// Contiguous ranges of about equal total work, for loops whose items
/// cost very different amounts: `work[i]` is item i's cost, and at most
/// `num_chunks` non-empty ranges cover [0, work.size()) in index order.
/// Range c ends at the first item whose running total reaches
/// (c + 1) / num_chunks of the whole, so one heavy item ends its range
/// and zero total work gives a single range. Like StaticChunks, the split
/// depends only on its arguments, never on timing.
inline std::vector<IndexRange> BalancedChunks(
    std::span<const std::uint64_t> work, std::size_t num_chunks) {
  if (num_chunks == 0) num_chunks = 1;
  std::uint64_t total = 0;
  for (std::uint64_t w : work) total += w;
  std::vector<IndexRange> chunks;
  std::size_t begin = 0, end = 0;
  std::uint64_t prefix = 0;  // work of [0, end)
  for (std::size_t c = 1; c < num_chunks; ++c) {
    // floor(total * c / num_chunks), without overflowing the product.
    const std::uint64_t target = total / num_chunks * c +
                                 total % num_chunks * c / num_chunks;
    while (end < work.size() && prefix < target) prefix += work[end++];
    if (end > begin) {
      chunks.push_back({begin, end});
      begin = end;
    }
  }
  if (begin < work.size()) chunks.push_back({begin, work.size()});
  return chunks;
}

/// Runs `fn(chunk_index, ranges[chunk_index])` for every range: one
/// std::thread per range past the first, while the calling thread runs
/// range 0 itself (and any range whose thread fails to start; all of them
/// when there is at most one); returns once every range finished and its
/// thread is joined. If ranges throw, every range still runs to its
/// end, and then the lowest-indexed range's exception propagates to the
/// caller. `fn` must not touch state shared with other ranges unless it
/// is its own range-indexed slot. A thread's first allocation binds it
/// to a malloc arena of its own, whose freed memory the calling thread
/// cannot reuse; so the engine's set-up passes size every buffer `fn`
/// grows on the calling thread, before the call.
template <typename ChunkFn>
void ParallelForRanges(std::span<const IndexRange> ranges, ChunkFn&& fn) {
  if (ranges.size() <= 1) {
    for (std::size_t c = 0; c < ranges.size(); ++c) fn(c, ranges[c]);
    return;
  }
  std::vector<std::exception_ptr> errors(ranges.size());
  const auto run = [&](std::size_t c) {
    try {
      fn(c, ranges[c]);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(ranges.size() - 1);
  for (std::size_t c = 1; c < ranges.size(); ++c) {
    try {
      threads.emplace_back(run, c);
    } catch (...) {
      run(c);  // no thread to be had: the caller runs the range itself
    }
  }
  run(0);
  for (std::thread& thread : threads) thread.join();
  for (std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

/// Runs `fn(chunk_index, range)` over the static chunks of [0, n) on
/// `num_threads` threads (see ParallelForRanges).
template <typename ChunkFn>
void ParallelForChunks(std::size_t n, std::size_t num_threads, ChunkFn&& fn) {
  const std::vector<IndexRange> chunks = StaticChunks(n, num_threads);
  ParallelForRanges(chunks, fn);
}

/// Runs `fn(i)` for every i in [0, n), statically chunked over
/// `num_threads` threads. Iteration order inside a chunk is ascending.
template <typename Fn>
void ParallelFor(std::size_t n, std::size_t num_threads, Fn&& fn) {
  ParallelForChunks(n, num_threads,
                    [&fn](std::size_t /*chunk*/, IndexRange range) {
                      for (std::size_t i = range.begin; i < range.end; ++i) {
                        fn(i);
                      }
                    });
}

/// Per-chunk accumulate + ordered merge: runs `accumulate(chunk_index,
/// range)` -> Accumulator over the static chunks of [0, n), then
/// concatenates the per-chunk results *in chunk order* into one vector.
/// Because chunk boundaries and merge order are both deterministic, the
/// output is independent of the thread count.
template <typename Accumulate>
auto AccumulateOrdered(std::size_t n, std::size_t num_threads,
                       Accumulate&& accumulate) {
  using Accumulator =
      decltype(accumulate(std::size_t{0}, IndexRange{0, 0}));
  const std::size_t num_chunks = StaticChunks(n, num_threads).size();
  std::vector<Accumulator> parts(num_chunks);
  ParallelForChunks(n, num_threads,
                    [&](std::size_t chunk, IndexRange range) {
                      parts[chunk] = accumulate(chunk, range);
                    });
  Accumulator merged;
  std::size_t total = 0;
  for (const Accumulator& part : parts) total += part.size();
  merged.reserve(total);
  for (Accumulator& part : parts) {
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return merged;
}

/// How many of the first `k` outputs of a stable merge of sorted `a` and
/// `b` come from `a` (std::merge's rule: on a tie, `a`'s element first).
template <typename T, typename Less>
std::size_t MergeSplit(std::span<const T> a, std::span<const T> b,
                       std::size_t k, Less& less) {
  std::size_t lo = k > b.size() ? k - b.size() : 0;
  std::size_t hi = std::min(k, a.size());
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    // Too few from `a` while a[i] would precede b[k - i - 1].
    if (!less(b[k - i - 1], a[i])) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

/// Sorts `items` by `less` on `num_threads` fork-join threads: each
/// static chunk is sorted by std::sort on a thread of its own, then rounds
/// of pairwise std::merge join the chunks through a buffer the calling
/// thread allocates, every round split into equal parts of its output
/// (MergeSplit), one per thread. Nothing is allocated on the threads. With
/// one chunk this is std::sort. Elements that compare equal end in an
/// order that depends on the chunking, as std::sort's does on the input;
/// under a total order the result is std::sort's at every thread count.
template <typename T, typename Less>
void ParallelSort(std::span<T> items, std::size_t num_threads, Less less) {
  std::vector<IndexRange> runs = StaticChunks(items.size(), num_threads);
  if (runs.size() <= 1) {
    std::sort(items.begin(), items.end(), less);
    return;
  }
  const std::unique_ptr<T[]> buffer =
      std::make_unique_for_overwrite<T[]>(items.size());
  ParallelForRanges(runs, [&](std::size_t, IndexRange run) {
    std::sort(items.begin() + run.begin, items.begin() + run.end, less);
  });
  const std::vector<IndexRange> parts =
      StaticChunks(items.size(), runs.size());
  std::span<T> from = items, to(buffer.get(), items.size());
  while (runs.size() > 1) {
    // Pair run 2m with run 2m + 1; an odd last run is copied.
    ParallelForRanges(parts, [&](std::size_t, IndexRange part) {
      for (std::size_t m = 0; m < runs.size(); m += 2) {
        const IndexRange left = runs[m];
        const std::size_t end =
            m + 1 < runs.size() ? runs[m + 1].end : left.end;
        const std::size_t begin = std::max(part.begin, left.begin);
        const std::size_t stop = std::min(part.end, end);
        if (begin >= stop) continue;
        const std::span<const T> a = from.subspan(left.begin, left.size());
        const std::span<const T> b =
            from.subspan(left.end, end - left.end);
        const std::size_t a0 = MergeSplit(a, b, begin - left.begin, less);
        const std::size_t a1 = MergeSplit(a, b, stop - left.begin, less);
        const std::size_t b0 = begin - left.begin - a0;
        const std::size_t b1 = stop - left.begin - a1;
        std::merge(a.begin() + a0, a.begin() + a1, b.begin() + b0,
                   b.begin() + b1, to.begin() + begin, less);
      }
    });
    std::vector<IndexRange> merged;
    for (std::size_t m = 0; m < runs.size(); m += 2) {
      merged.push_back({runs[m].begin, m + 1 < runs.size()
                                           ? runs[m + 1].end
                                           : runs[m].end});
    }
    runs = std::move(merged);
    std::swap(from, to);
  }
  if (from.data() != items.data()) {
    ParallelForRanges(parts, [&](std::size_t, IndexRange part) {
      std::copy(from.begin() + part.begin, from.begin() + part.end,
                items.begin() + part.begin);
    });
  }
}

}  // namespace sper

#endif  // SPER_PARALLEL_PARALLEL_FOR_H_
