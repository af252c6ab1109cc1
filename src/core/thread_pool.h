// A small fixed-size worker pool for the optimizer's candidate search.
//
// ParallelFor dispatches loop indices to the workers plus the calling
// thread; indices are claimed from an atomic counter, so which thread runs
// which index is nondeterministic, but the caller is expected to write
// results into per-index slots and reduce them in index order afterwards —
// that keeps the overall computation deterministic (the optimizer picks the
// same winner the sequential loop would). With zero workers ParallelFor
// degenerates to a plain sequential loop on the caller, with no locking.
//
// Threading contract: ParallelFor may be called from one thread at a time
// (the optimizer that owns the pool). Batch descriptors are published to
// workers under State::mu (see thread_pool.cc, which carries the clang
// thread-safety annotations); index claiming and abort signalling use
// atomics outside the lock.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace mwp {

class ThreadPool {
 public:
  /// `workers` extra threads (in addition to the calling thread). Clamped
  /// below at 0.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrent lanes: the workers plus the calling thread.
  int concurrency() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs fn(lane, i) for every i in [0, count). The caller participates as
  /// lane 0; worker threads are lanes 1..workers. Blocks until every index
  /// has finished. The first exception thrown by any invocation is
  /// rethrown on the caller (remaining indices may be skipped).
  void ParallelFor(std::size_t count,
                   const std::function<void(int lane, std::size_t i)>& fn);

 private:
  struct State;
  void WorkerLoop(std::stop_token stop, int lane);

  std::unique_ptr<State> state_;
  std::vector<std::jthread> threads_;
};

}  // namespace mwp
