#include "core/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace garcia::core {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadPool) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) pool.Submit([&order, i] { order.push_back(i); });
  pool.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { counter++; });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace garcia::core
