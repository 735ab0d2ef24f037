// Copyright (c) 2026 GARCIA reproduction authors.
// A small fixed-size thread pool with a blocking ParallelForShards helper.

#ifndef GARCIA_CORE_THREADPOOL_H_
#define GARCIA_CORE_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace garcia::core {

/// Fixed-size worker pool. Tasks are void() closures; Wait() blocks until
/// every submitted task has finished. ParallelForShards may be called from
/// inside a pool task: each call joins on its own completion
/// latch — not on pool idleness — and the calling thread helps drain the
/// queue while it waits, so nested sharded calls cannot deadlock and never
/// block on unrelated in-flight work (e.g. other requests of a batch
/// being served on the same pool).
class ThreadPool {
 public:
  /// num_threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Runs fn(lo, hi) once per contiguous shard of [begin, end) across the
  /// pool; blocks until done. Shards never overlap and cover the
  /// range exactly, so callers writing disjoint output ranges need no
  /// synchronization. Executes fn(begin, end) inline when the range is
  /// small or the pool has a single thread. The caller runs the first
  /// shard itself and then joins on a per-call latch, helping with queued
  /// tasks while any of its shards are still pending.
  void ParallelForShards(size_t begin, size_t end,
                         const std::function<void(size_t, size_t)>& fn,
                         size_t min_shard = 256);

 private:
  void WorkerLoop();
  /// Pops and runs one queued task if any; returns false when the queue
  /// was empty. Used by waiting ParallelForShards callers to help.
  bool RunOneTask();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace garcia::core

#endif  // GARCIA_CORE_THREADPOOL_H_
