// Minimal fixed-size thread pool of one-shot tasks.  Used by the solver
// service (one job per task) and the campaign harness (one trial per
// task).  A threaded dabs solve does not use it: it runs one long-lived
// worker per batch searcher (see core/dabs_solver.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dabs {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks may run in any order across workers.
  void submit(std::function<void()> task);

  /// Enqueues a whole batch under a single lock acquisition with one
  /// notify_all — per-task lock/wakeup overhead matters when a campaign
  /// submits hundreds of short trials at once.  The vector is consumed.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Tasks submitted but not yet picked up by a worker.  Instantaneous
  /// snapshots for metrics/backpressure: another thread may change them
  /// right after the lock drops.
  std::size_t queue_depth() const;
  /// Tasks currently executing on a worker.
  std::size_t active_count() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> tasks_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dabs
