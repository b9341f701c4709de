// A small fixed-size worker pool for running independent jobs.
//
// The simulator itself is strictly single-threaded; this pool exists one
// level up, where *whole simulations* (trials of core::run_experiment) are
// independent and can run side by side. Tasks execute FIFO on `workers`
// threads; `wait_idle` blocks until every submitted task has finished, so
// the pool can be reused across submission rounds.
//
// Tasks must not let exceptions escape (capture them into a slot instead,
// as core::run_trials does) — an escaping exception terminates.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bgpsim::sim {

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to at least 1).
  explicit ThreadPool(std::size_t workers);

  /// Joins all workers; pending tasks are still drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Safe to call from any thread.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no task is executing.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  [[nodiscard]] static std::size_t default_workers();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: task ready / stop
  std::condition_variable idle_cv_;  // signals wait_idle: pool drained
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks popped but not yet finished
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bgpsim::sim
