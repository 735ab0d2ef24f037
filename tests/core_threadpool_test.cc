#include "core/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
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

TEST(ThreadPoolTest, ParallelForShardsCoversRangeAtMinShard16) {
  ThreadPool pool(4);
  std::vector<int> hits(10000, 0);
  pool.ParallelForShards(
      0, hits.size(),
      [&hits](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i]++;
      },
      16);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForShardsDefaultMinShardCoversSmallRange) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);
  pool.ParallelForShards(0, hits.size(), [&hits](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForShardsEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelForShards(5, 5, [&calls](size_t, size_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForShardsOffsetRange) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.ParallelForShards(
      100, 1100,
      [&sum](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) sum.fetch_add(i);
      },
      32);
  long expected = 0;
  for (size_t i = 100; i < 1100; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
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

TEST(ThreadPoolTest, ParallelForShardsCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Shards are disjoint, so unsynchronized writes to distinct slots are safe.
  std::vector<int> hits(5000, 0);
  pool.ParallelForShards(
      0, hits.size(),
      [&hits](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i]++;
      },
      64);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForShardsUnevenSizes) {
  ThreadPool pool(3);
  // Range sizes chosen so n % shards != 0 in several ways: shards must tile
  // [begin, end) without gaps or overlap regardless of remainder handling.
  for (size_t n : {1u, 2u, 7u, 129u, 1000u, 1025u, 4097u}) {
    std::vector<int> hits(n, 0);
    pool.ParallelForShards(
        0, n,
        [&hits](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) hits[i]++;
        },
        1);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i], 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForShardsNonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.ParallelForShards(
      37, 2037,
      [&sum](size_t lo, size_t hi) {
        long local = 0;
        for (size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
        sum.fetch_add(local);
      },
      16);
  long expected = 0;
  for (size_t i = 37; i < 2037; ++i) expected += static_cast<long>(i);
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, ParallelForShardsSmallRangeInline) {
  ThreadPool pool(4);
  int calls = 0;  // inline path: safe to mutate without synchronization
  pool.ParallelForShards(
      0, 10, [&calls](size_t lo, size_t hi) { calls += static_cast<int>(hi - lo); },
      256);
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPoolTest, ParallelForShardsStressRepeatedWaves) {
  ThreadPool pool(4);
  for (int wave = 0; wave < 50; ++wave) {
    const size_t n = 100 + static_cast<size_t>(wave) * 37;  // uneven every wave
    std::atomic<long> count{0};
    pool.ParallelForShards(
        0, n,
        [&count](size_t lo, size_t hi) {
          count.fetch_add(static_cast<long>(hi - lo));
        },
        8);
    ASSERT_EQ(count.load(), static_cast<long>(n)) << "wave " << wave;
  }
}

}  // namespace
}  // namespace garcia::core
