#include "parallel/thread_pool.h"

#include <utility>

namespace sper {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (!AllDoneLocked()) all_done_.Wait(lock);
  if (first_exception_ != nullptr) {
    std::exception_ptr exception = std::exchange(first_exception_, nullptr);
    std::rethrow_exception(exception);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!WorkAvailableLocked()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr exception;
    try {
      task();
    } catch (...) {
      exception = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      if (exception != nullptr) {
        if (first_exception_ == nullptr) {
          first_exception_ = exception;
        } else {
          // The rethrow slot is taken; make the masked failure countable
          // instead of vanishing.
          dropped_exceptions_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (--in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace sper
