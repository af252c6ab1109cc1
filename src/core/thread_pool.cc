#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>

#include "common/thread_annotations.h"

namespace mwp {

struct ThreadPool::State {
  Mutex mu;
  std::condition_variable work_cv;   // workers wait for a batch
  std::condition_variable done_cv;   // caller waits for batch completion
  /// Batch descriptor, published under mu before waking the workers and
  /// cleared by the caller after every worker has signed off.
  const std::function<void(int, std::size_t)>* fn MWP_GUARDED_BY(mu) = nullptr;
  std::size_t count MWP_GUARDED_BY(mu) = 0;
  std::uint64_t generation MWP_GUARDED_BY(mu) = 0;  // bumped per batch
  std::exception_ptr error MWP_GUARDED_BY(mu);
  /// Lock-free batch progress: the index dispenser, the per-worker batch
  /// sign-off counter, and the first-error abort flag.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> abort{false};
};

ThreadPool::ThreadPool(int workers) : state_(std::make_unique<State>()) {
  workers = std::max(workers, 0);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back(
        [this, w](std::stop_token stop) { WorkerLoop(stop, w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  for (std::jthread& t : threads_) t.request_stop();
  {
    // The stop flag is checked under mu in the workers' wait predicate, so
    // notifying under mu guarantees no worker misses the wake-up.
    MutexLock lock(state_->mu);
    state_->work_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::stop_token stop, int lane) {
  State& s = *state_;
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int, std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    {
      MutexLock lock(s.mu);
      while (!stop.stop_requested() && s.generation == seen_generation) {
        s.work_cv.wait(lock.native());
      }
      if (stop.stop_requested()) return;
      seen_generation = s.generation;
      fn = s.fn;
      count = s.count;
    }
    for (;;) {
      if (s.abort.load(std::memory_order_relaxed)) break;
      const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*fn)(lane, i);
      } catch (...) {
        {
          MutexLock lock(s.mu);
          if (!s.error) s.error = std::current_exception();
        }
        s.abort.store(true, std::memory_order_relaxed);
      }
    }
    {
      // This worker is done with the batch; the batch completes once every
      // worker has signed off (and the caller has drained its own share).
      MutexLock lock(s.mu);
      s.finished.fetch_add(1, std::memory_order_relaxed);
      s.done_cv.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t count, const std::function<void(int lane, std::size_t i)>& fn) {
  if (count == 0) return;
  State& s = *state_;
  if (threads_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  {
    MutexLock lock(s.mu);
    s.fn = &fn;
    s.count = count;
    s.next.store(0, std::memory_order_relaxed);
    s.finished.store(0, std::memory_order_relaxed);
    s.abort.store(false, std::memory_order_relaxed);
    s.error = nullptr;
    ++s.generation;
    s.work_cv.notify_all();
  }

  // The caller is lane 0 and claims indices alongside the workers.
  for (;;) {
    if (s.abort.load(std::memory_order_relaxed)) break;
    const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      fn(0, i);
    } catch (...) {
      {
        MutexLock lock(s.mu);
        if (!s.error) s.error = std::current_exception();
      }
      s.abort.store(true, std::memory_order_relaxed);
    }
  }

  // Wait for every worker to leave the batch (each signals once when it
  // stops claiming indices), then retire the batch descriptor.
  std::exception_ptr err;
  {
    MutexLock lock(s.mu);
    while (s.finished.load(std::memory_order_relaxed) < threads_.size()) {
      s.done_cv.wait(lock.native());
    }
    s.fn = nullptr;
    err = s.error;
    s.error = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace mwp
