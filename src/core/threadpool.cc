#include "core/threadpool.h"

#include <algorithm>

#include "core/macros.h"

namespace garcia::core {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GARCIA_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

/// Per-call completion latch for ParallelForShards. Joining on the latch
/// instead of pool idleness lets unrelated tasks (other requests of a
/// served batch) stay in flight across a sharded kernel call.
struct ShardLatch {
  std::mutex m;
  std::condition_variable cv;
  size_t remaining = 0;
};

}  // namespace

void ThreadPool::ParallelForShards(size_t begin, size_t end,
                                   const std::function<void(size_t, size_t)>& fn,
                                   size_t min_shard) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t threads = num_threads();
  if (threads <= 1 || n < min_shard * 2) {
    fn(begin, end);
    return;
  }
  const size_t want = std::min(threads, (n + min_shard - 1) / min_shard);
  const size_t per_shard = (n + want - 1) / want;
  const size_t shards = (n + per_shard - 1) / per_shard;  // drop empty tails
  if (shards <= 1) {
    fn(begin, end);
    return;
  }
  ShardLatch latch;
  latch.remaining = shards - 1;
  // Shards 1..n-1 go to the pool; the caller runs shard 0 itself so one
  // shard's worth of work never pays a queue round-trip.
  for (size_t s = 1; s < shards; ++s) {
    const size_t lo = begin + s * per_shard;
    const size_t hi = std::min(end, lo + per_shard);
    Submit([lo, hi, &fn, &latch] {
      fn(lo, hi);
      {
        // Notify under the lock: the waiter cannot destroy the latch
        // until this critical section ends.
        std::lock_guard<std::mutex> lock(latch.m);
        if (--latch.remaining == 0) latch.cv.notify_all();
      }
    });
  }
  fn(begin, begin + std::min(n, per_shard));
  // Help drain the queue while our shards are pending. Once the queue is
  // empty every one of our shards is executing (FIFO: they were enqueued
  // before we started helping), so parking on the latch cv is safe. The
  // helping loop is what makes nested ParallelForShards calls from pool
  // tasks deadlock-free.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(latch.m);
      if (latch.remaining == 0) return;
    }
    if (!RunOneTask()) {
      std::unique_lock<std::mutex> lock(latch.m);
      latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
      return;
    }
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (in_flight_ == 0) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace garcia::core
