#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace semis {
namespace {

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](size_t item, size_t worker) {
    EXPECT_LT(worker, 4u);
    hits[item].fetch_add(1);
  });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, SingleWorkerProcessesInOrder) {
  // The sequential-reference property the parallel executor relies on.
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(100, [&](size_t item, size_t) { order.push_back(item); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(17, [&](size_t, size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPoolTest, EmptyJobReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // An empty job never becomes active, so the next one runs normally.
  std::atomic<size_t> count{0};
  pool.ParallelFor(5, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5u);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<size_t> count{0};
  pool.ParallelFor(10, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

}  // namespace
}  // namespace semis
