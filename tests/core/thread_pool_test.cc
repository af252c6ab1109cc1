#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace mwp {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsSequentiallyOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int lane, std::size_t i) {
    EXPECT_EQ(lane, 0);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 4);
  constexpr std::size_t kCount = 1'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int lane, std::size_t i) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 4);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(10, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](int, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](int, std::size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 8);
}

}  // namespace
}  // namespace mwp
