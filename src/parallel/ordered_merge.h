#ifndef SPER_PARALLEL_ORDERED_MERGE_H_
#define SPER_PARALLEL_ORDERED_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

/// \file ordered_merge.h
/// Deterministic k-way merge of pull-based streams — the streaming
/// counterpart of AccumulateOrdered (parallel_for.h). Where
/// AccumulateOrdered concatenates finished per-chunk vectors in chunk
/// order, KWayMerge interleaves *live* streams: at every step it emits the
/// best current head under a strict weak order, breaking exact ties by
/// stream index. The output therefore depends only on the stream contents
/// and the comparator — never on timing — which is what sharded serving's
/// global emission order rests on.

namespace sper {

/// What one pull from a merge stream (or from the merge itself) produced.
enum class MergeStatus {
  kItem,       // `out` was filled with the next element
  kExhausted,  // the stream is over — it will never yield again
  kBlocked,    // nothing *yet*: the pull gave up (deadline/cancel) with the
               // stream fully intact; retrying later continues losslessly
};

/// Greedy best-head merge of K pull-based streams.
///
/// Each stream is a callable `MergeStatus(T&)` that fills its argument on
/// kItem. Streams need not be globally sorted: the merge emits, at each
/// step, the best head among the K current heads under `Compare` (strict
/// "a before b"). For streams that *are* sorted this is the classic k-way
/// ordered merge. Ties between heads go to the lowest-indexed stream, so
/// the merge is deterministic for any inputs.
///
/// Cancellation-safety: a stream may return kBlocked instead of blocking
/// indefinitely. The merge then returns kBlocked itself with every piece
/// of state intact — heads already in the heap, the priming cursor, and
/// the pending refill — so the next Next() call retries exactly the pull
/// that gave up. Refills are *lazy* (the popped stream is re-pulled at the
/// start of the next call, not eagerly after the pop): the heap content at
/// every pop is identical to the eager schedule, so the emitted sequence
/// is bit-identical, but a pull that blocks can no longer strand an
/// already-drawn item.
///
/// Heads are pulled lazily: no stream is touched before the first Next().
/// T must be default-constructible (it is the refill staging buffer).
template <typename T, typename Compare = std::less<T>>
class KWayMerge {
 public:
  using Stream = std::function<MergeStatus(T&)>;

  explicit KWayMerge(Compare compare = Compare())
      : compare_(std::move(compare)) {}

  /// Registers one more stream. Must not be called after Next().
  void AddStream(Stream stream) { streams_.push_back(std::move(stream)); }

  /// Stream index of the last emitted head; the number of registered
  /// streams before the first successful Next().
  std::size_t last_stream() const {
    return last_stream_ == kNoStream ? streams_.size() : last_stream_;
  }

  /// The best head among all streams. kExhausted once every stream is
  /// exhausted; kBlocked when the pull the merge needed right now gave up
  /// (state intact, retry later). O(log K) per emitted item: heads live
  /// in a binary heap keyed on (Compare, stream index) — a total order,
  /// since indices are unique, so the pop sequence is deterministic
  /// whatever the heap's internal layout.
  MergeStatus Next(T& out) {
    if (!primed_) {
      heap_.reserve(streams_.size());
      while (prime_cursor_ < streams_.size()) {
        const std::size_t k = prime_cursor_;
        T head;
        switch (streams_[k](head)) {
          case MergeStatus::kItem:
            heap_.push_back({std::move(head), k});
            break;
          case MergeStatus::kExhausted:
            break;
          case MergeStatus::kBlocked:
            return MergeStatus::kBlocked;  // resume priming at k next call
        }
        ++prime_cursor_;
      }
      std::make_heap(heap_.begin(), heap_.end(), HeapLess{compare_});
      primed_ = true;
    }
    if (pending_refill_ != kNoStream) {
      T head;
      switch (streams_[pending_refill_](head)) {
        case MergeStatus::kItem:
          heap_.push_back({std::move(head), pending_refill_});
          std::push_heap(heap_.begin(), heap_.end(), HeapLess{compare_});
          break;
        case MergeStatus::kExhausted:
          break;
        case MergeStatus::kBlocked:
          return MergeStatus::kBlocked;  // retry this refill next call
      }
      pending_refill_ = kNoStream;
    }
    if (heap_.empty()) return MergeStatus::kExhausted;
    std::pop_heap(heap_.begin(), heap_.end(), HeapLess{compare_});
    Entry best = std::move(heap_.back());
    heap_.pop_back();
    last_stream_ = best.stream;
    pending_refill_ = best.stream;
    out = std::move(best.value);
    return MergeStatus::kItem;
  }

 private:
  struct Entry {
    T value;
    std::size_t stream;
  };

  /// std::*_heap is a max-heap: "a < b" must mean "b pops first". b pops
  /// first when it compares before a, or ties with a but has the lower
  /// stream index.
  struct HeapLess {
    const Compare& compare;
    bool operator()(const Entry& a, const Entry& b) const {
      if (compare(b.value, a.value)) return true;
      if (compare(a.value, b.value)) return false;
      return b.stream < a.stream;
    }
  };

  static constexpr std::size_t kNoStream = static_cast<std::size_t>(-1);

  Compare compare_;
  std::vector<Stream> streams_;
  std::vector<Entry> heap_;
  std::size_t last_stream_ = kNoStream;
  std::size_t prime_cursor_ = 0;
  std::size_t pending_refill_ = kNoStream;
  bool primed_ = false;
};

}  // namespace sper

#endif  // SPER_PARALLEL_ORDERED_MERGE_H_
