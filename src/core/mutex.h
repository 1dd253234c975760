#ifndef SPER_CORE_MUTEX_H_
#define SPER_CORE_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.h"

/// \file mutex.h
/// Annotated synchronization primitives: thin wrappers over std::mutex /
/// std::unique_lock / std::condition_variable that carry the Clang
/// thread-safety attributes (core/thread_annotations.h). Every locking
/// site in the library uses these instead of the std types so that
/// -Wthread-safety can prove lock discipline over the whole concurrency
/// substrate (thread pool, emission pipeline ring, resolver
/// admission, metric registry, fault registry).
///
/// CondVar deliberately has no predicate-taking Wait: the analysis sees a
/// predicate lambda as an unrelated lock-free function and flags every
/// guarded read inside it. Callers write the loop explicitly —
///
///   MutexLock lock(mutex_);
///   while (!ReadyLocked()) cv_.Wait(lock);
///
/// — with the guarded predicate in a SPER_REQUIRES(mutex_) member. Wait
/// releases and reacquires the capability internally; from the analysis's
/// point of view (and the caller's) the lock is held throughout.

namespace sper {

class SPER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SPER_ACQUIRE() { mu_.lock(); }
  void Unlock() SPER_RELEASE() { mu_.unlock(); }
  bool TryLock() SPER_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped holder: acquires on construction, releases on destruction (the
/// lock_guard/unique_lock of the annotated world). CondVar waits take the
/// holder, not the mutex, so a wait can only be written under a live lock.
class SPER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SPER_ACQUIRE(mutex) : lock_(mutex.mu_) {}
  ~MutexLock() SPER_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks until notified (or
  /// spuriously woken — always re-check the predicate in a loop). The
  /// mutex is reacquired before returning.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Like Wait, but also returns (std::cv_status::timeout) once
  /// `deadline` passes. Templated so callers pass any clock's time_point
  /// (the serving stack uses CancelToken::Clock deadlines).
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock, std::chrono::time_point<Clock, Duration> deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sper

#endif  // SPER_CORE_MUTEX_H_
