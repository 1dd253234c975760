#ifndef SPER_PARALLEL_THREAD_POOL_H_
#define SPER_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

/// \file thread_pool.h
/// A minimal fixed-size worker pool with a FIFO work queue — the execution
/// substrate of the parallel initialization paths (block filtering, edge
/// weighting). Parallelism here is an implementation detail of a
/// deterministic library: tasks must not make output depend on execution
/// order; ParallelFor (parallel_for.h) provides the deterministic
/// static chunking used by every call site.

namespace sper {

/// Fixed-size thread pool. Submit() enqueues work; Wait() blocks until the
/// queue drains and every submitted task finished, rethrowing the first
/// captured task exception if any task threw.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins the workers. Pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called concurrently with destruction.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. If any task threw,
  /// rethrows the first captured exception; later ones are counted in
  /// dropped_exceptions() rather than silently discarded.
  void Wait();

  /// Number of worker threads.
  std::size_t num_threads() const { return workers_.size(); }

  /// Task exceptions that could not be rethrown because an earlier one
  /// already occupied the rethrow slot. Non-zero means a failure was
  /// masked — a health signal, not a control-flow one.
  std::uint64_t dropped_exceptions() const {
    return dropped_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  /// Wait()'s resume condition: no submitted task is queued or running.
  bool AllDoneLocked() const SPER_REQUIRES(mutex_) { return in_flight_ == 0; }

  /// WorkerLoop's resume condition: work to take, or shutdown.
  bool WorkAvailableLocked() const SPER_REQUIRES(mutex_) {
    return shutting_down_ || !queue_.empty();
  }

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ SPER_GUARDED_BY(mutex_);
  std::exception_ptr first_exception_ SPER_GUARDED_BY(mutex_);
  std::size_t in_flight_ SPER_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SPER_GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> dropped_exceptions_{0};
  std::vector<std::thread> workers_;
};

}  // namespace sper

#endif  // SPER_PARALLEL_THREAD_POOL_H_
