#ifndef SPER_PARALLEL_EMISSION_PIPELINE_H_
#define SPER_PARALLEL_EMISSION_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/clock.h"
#include "obs/fault_injection.h"
#include "obs/metrics.h"
#include "parallel/cancel.h"

/// \file emission_pipeline.h
/// The emission pipeline: W producer threads compute refill batches ahead
/// of one consumer, which still reads them in exactly the serial order.
///
/// The stream is a fixed sequence of batches, each a pure function of the
/// built state and its index (BatchSource, progressive/emitter.h), cut into
/// consecutive *groups* before anything is produced. Producer w fills
/// groups w, w + W, w + 2W, ... into one ordered ring of reusable slots —
/// group g always lands in slot g mod capacity — and the consumer reads
/// groups in order. Batch content never depends on which producer made it
/// or when, so the consumed stream is bit-identical at every W and
/// capacity. A producer may fill group g only once the consumer released
/// group g - capacity, so look-ahead is bounded by the ring and the stream
/// is never buffered whole.
///
/// ShardedEngine runs one producer per shard (W = 1); a plain engine on
/// one shard runs num_threads of them (engine/progressive_engine.h).

namespace sper {

/// Runtime-health metric sinks of one EmissionPipeline. All pointers are
/// optional (nullptr = not recorded); the owner wires them to its
/// registry and must keep them alive for the pipeline's lifetime.
struct EmissionPipelineMetrics {
  /// Groups committed by the producers.
  obs::Counter* batches = nullptr;
  /// Producer slot acquisitions that found their group's slot still held
  /// (back-pressure: consumption is the bottleneck).
  obs::Counter* producer_stalls = nullptr;
  /// Consumer Front calls that found the next group not yet committed
  /// (starvation: production is the bottleneck).
  obs::Counter* consumer_waits = nullptr;
  /// Wall nanoseconds per group production.
  obs::Histogram* refill_ns = nullptr;
  /// Committed-but-unconsumed slots observed after each commit
  /// (0..capacity).
  obs::Histogram* ring_occupancy = nullptr;
};

/// How the stream failed, surfaced to the consumer instead of rethrown
/// across it: the index of the batch whose production threw, and the
/// captured exception. `exception == nullptr` means no failure.
struct EmissionPipelineError {
  std::size_t batch_index = 0;
  std::exception_ptr exception;
};

/// W producer threads over one ordered ring of `capacity` slots. Batch is
/// a reusable buffer with Clear(), Reserve(n), size() and Truncate(n) — the
/// engines use ComparisonList.
template <typename Batch>
class EmissionPipeline {
 public:
  /// Appends batch `index` to `out`, running on producer `worker`
  /// (< num_producers). May throw: the failure is contained and surfaces
  /// when the consumer reaches that batch.
  using Produce =
      std::function<void(std::size_t worker, std::size_t index, Batch& out)>;

  /// Group g covers batches [group_starts[g], group_starts[g + 1]); the
  /// last entry is the batch count ({0} = an empty stream). Every slot
  /// reserves `slot_reserve` items up front. Production does not start
  /// until Start(). `metrics`, when given, must outlive the pipeline; it
  /// only adds relaxed counter updates, never extra synchronization, so
  /// the consumed stream is identical with or without it.
  EmissionPipeline(std::vector<std::size_t> group_starts,
                   std::size_t num_producers, std::size_t capacity,
                   std::size_t slot_reserve, Produce produce,
                   const EmissionPipelineMetrics* metrics = nullptr)
      : group_starts_(std::move(group_starts)),
        num_producers_(std::max<std::size_t>(1, num_producers)),
        slots_(std::max<std::size_t>(1, capacity)),
        can_produce_(num_producers_),
        produce_(std::move(produce)),
        metrics_(metrics) {
    for (Slot& slot : slots_) slot.batch.Reserve(slot_reserve);
  }

  ~EmissionPipeline() { Shutdown(); }

  EmissionPipeline(const EmissionPipeline&) = delete;
  EmissionPipeline& operator=(const EmissionPipeline&) = delete;

  /// Spawns the producer threads. Idempotent; consumer side, like
  /// Shutdown.
  void Start() {
    if (!threads_.empty()) return;
    threads_.reserve(num_producers_);
    for (std::size_t w = 0; w < num_producers_; ++w) {
      threads_.emplace_back([this, w] { ProducerLoop(w); });
    }
  }

  /// Closes the ring and joins every producer. Safe at any point of the
  /// stream (budget exhaustion abandons it mid-flight); idempotent.
  void Shutdown() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    for (CondVar& cv : can_produce_) cv.NotifyAll();
    can_consume_.NotifyAll();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  /// Consumer: the next group's batches, blocking until its producer
  /// commits them. nullptr once the stream is over — exhausted, shut down,
  /// or failed (error() tells the last case apart; nothing is ever
  /// rethrown across this boundary).
  Batch* Front() {
    bool expired = false;
    return FrontUntil(CancelToken(), &expired);
  }

  /// Consumer: like Front(), but gives up when `token` has fired by the
  /// time the group is in hand: nullptr with *expired = true, stream
  /// untouched — a later Front()/FrontUntil() resumes exactly where this
  /// one left off. A group already committed is returned without a token
  /// check; one this call had to wait for is re-checked once it arrives,
  /// so a group committed after the deadline waits for the next call
  /// instead of being served late. A deadline is honored via wait_until;
  /// an explicit Cancel() with no deadline is noticed within
  /// kCancelPollInterval.
  Batch* FrontUntil(const CancelToken& token, bool* expired) {
    *expired = false;
    MutexLock lock(mutex_);
    const bool waited = !CanConsumeLocked();
    while (!CanConsumeLocked()) {
      if (!token.valid()) {
        can_consume_.Wait(lock);
        continue;
      }
      if (token.cancelled()) {
        *expired = true;
        break;
      }
      auto wake = CancelToken::Clock::now() + kCancelPollInterval;
      if (token.has_deadline()) wake = std::min(wake, token.deadline());
      can_consume_.WaitUntil(lock, wake);
    }
    if (waited && token.valid() && token.cancelled()) *expired = true;
    if (waited && metrics_ != nullptr &&
        metrics_->consumer_waits != nullptr) {
      metrics_->consumer_waits->Add();
    }
    if (*expired || closed_ || failed_ || head_ == num_groups()) {
      return nullptr;
    }
    return &slots_[head_ % slots_.size()].batch;
  }

  /// Consumer: releases the drained Front() group, handing its slot to the
  /// producer of the group `capacity` places on. Releasing a group whose
  /// production failed ends the stream instead: its batches before the
  /// failing one were just consumed, and error() now reports the failure.
  void PopFront() {
    std::size_t producer = 0;
    {
      MutexLock lock(mutex_);
      if (slots_[head_ % slots_.size()].error.exception != nullptr) {
        failed_ = true;
        return;
      }
      slots_[head_ % slots_.size()].ready = false;
      --ready_;
      ++head_;
      producer = (head_ + slots_.size() - 1) % num_producers_;
    }
    can_produce_[producer].NotifyOne();
  }

  /// The failure that ended the stream, once Front() returned nullptr
  /// after the failed group; `.exception == nullptr` otherwise.
  EmissionPipelineError error() const {
    MutexLock lock(mutex_);
    return failed_ ? slots_[head_ % slots_.size()].error
                   : EmissionPipelineError{};
  }

 private:
  struct Slot {
    Batch batch;
    bool ready = false;  // committed, not yet released by the consumer
    EmissionPipelineError error;
  };

  std::size_t num_groups() const { return group_starts_.size() - 1; }

  void ProducerLoop(std::size_t worker) {
    for (std::size_t g = worker; g < num_groups(); g += num_producers_) {
      Slot* slot = AcquireSlot(worker, g);
      if (slot == nullptr) return;  // shut down
      const obs::Stopwatch watch;
      slot->batch.Clear();
      std::size_t index = group_starts_[g];
      std::size_t kept = 0;
      bool failed = false;
      try {
        SPER_FAULT_HIT_AT("ring.acquire_slot", g);
        for (; index < group_starts_[g + 1]; ++index) {
          kept = slot->batch.size();
          produce_(worker, index, slot->batch);
        }
      } catch (...) {
        // The group's batches before `index` are still served, exactly
        // as the serial path serves them before it fails.
        slot->batch.Truncate(kept);
        slot->error = {index, std::current_exception()};
        failed = true;
      }
      if (metrics_ != nullptr && metrics_->refill_ns != nullptr) {
        metrics_->refill_ns->Record(watch.ElapsedNanos());
      }
      CommitSlot(g);
      if (failed) return;  // later groups would never be consumed
    }
  }

  /// Producer: the slot of `group`, once the consumer released the group
  /// `capacity` places back; nullptr after Shutdown().
  Slot* AcquireSlot(std::size_t worker, std::size_t group) {
    MutexLock lock(mutex_);
    const bool stalled = !CanProduceLocked(group);
    while (!CanProduceLocked(group)) can_produce_[worker].Wait(lock);
    if (stalled && metrics_ != nullptr &&
        metrics_->producer_stalls != nullptr) {
      metrics_->producer_stalls->Add();
    }
    return closed_ ? nullptr : &slots_[group % slots_.size()];
  }

  /// Producer: publishes `group`'s slot.
  void CommitSlot(std::size_t group) {
    // Counted before it is published: whoever consumed the group also
    // sees it counted.
    if (metrics_ != nullptr && metrics_->batches != nullptr) {
      metrics_->batches->Add();
    }
    std::size_t occupancy = 0;
    bool next_up = false;
    {
      MutexLock lock(mutex_);
      slots_[group % slots_.size()].ready = true;
      occupancy = ++ready_;
      next_up = group == head_;
    }
    if (next_up) can_consume_.NotifyOne();
    if (metrics_ != nullptr && metrics_->ring_occupancy != nullptr) {
      metrics_->ring_occupancy->Record(occupancy);
    }
  }

  bool CanProduceLocked(std::size_t group) const SPER_REQUIRES(mutex_) {
    return closed_ || group < head_ + slots_.size();
  }

  bool CanConsumeLocked() const SPER_REQUIRES(mutex_) {
    return closed_ || failed_ || head_ == num_groups() ||
           slots_[head_ % slots_.size()].ready;
  }

  const std::vector<std::size_t> group_starts_;
  const std::size_t num_producers_;
  /// A slot's batch and error are deliberately NOT guarded: a producer
  /// fills its slot between AcquireSlot and CommitSlot, the consumer
  /// drains it between Front and PopFront, and the slot index arithmetic
  /// keeps the two (and the producers among themselves) on disjoint
  /// slots. `ready` and `head_` change only under the mutex, which
  /// provides the happens-before edge of each handoff.
  std::vector<Slot> slots_;
  mutable Mutex mutex_;
  /// One per producer, so a release wakes exactly the producer whose
  /// group it frees.
  std::vector<CondVar> can_produce_;
  CondVar can_consume_;
  std::size_t head_ SPER_GUARDED_BY(mutex_) = 0;  // next group to consume
  std::size_t ready_ SPER_GUARDED_BY(mutex_) = 0;  // committed, unconsumed
  bool failed_ SPER_GUARDED_BY(mutex_) = false;
  bool closed_ SPER_GUARDED_BY(mutex_) = false;
  Produce produce_;
  const EmissionPipelineMetrics* metrics_ = nullptr;
  /// Consumer-thread only (Start/Shutdown), so unguarded by design.
  std::vector<std::thread> threads_;
};

}  // namespace sper

#endif  // SPER_PARALLEL_EMISSION_PIPELINE_H_
