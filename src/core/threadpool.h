// Copyright (c) 2026 GARCIA reproduction authors.
// A small fixed-size thread pool: Submit tasks, Wait for all of them.

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
/// every submitted task has finished. Used by serving::BatchRanker, which
/// runs one request per task.
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

 private:
  void WorkerLoop();

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
