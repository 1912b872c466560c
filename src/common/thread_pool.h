// Fixed-size thread pool used by the in-process MapReduce engine to run
// logical map/reduce tasks. Tasks are submitted in batches and the caller
// blocks until the batch drains; this mirrors the barrier between the map,
// shuffle, and reduce phases of a MapReduce job.
//
// Fault story (see also the fault-tolerance contract in mapreduce.h):
//  * A task that throws no longer terminates the process. The exception is
//    caught in the worker, converted to a Status (std::bad_alloc ->
//    ResourceExhausted, std::exception -> Internal with what(), anything
//    else -> Internal), and the first such Status is retrievable — once —
//    via TakeStatus(). The pool stays fully usable afterwards.
//  * CancellationToken is the cooperative job-abort primitive: a fatally
//    failed task calls Cancel(cause) and sibling tasks poll cancelled() at
//    their unit boundaries (task start, partition boundaries) and bail.
//    The pool never preempts a running task.
//  * Optional watchdog: when CC_TASK_TIMEOUT_MS is set to a positive
//    integer (hardened parse via common/parse.h — overflow or junk reads
//    as *disabled*, never as a timeout that can never fire), a monitor
//    thread samples the workers and counts every task that has been
//    running longer than the timeout as *degraded* (tasks_degraded()).
//    The count is observational: the task itself keeps running, since
//    preempting it could not be made safe.

#ifndef TSJ_COMMON_THREAD_POOL_H_
#define TSJ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace tsj {

/// Cooperative cancellation for a group of related tasks. Copyable — all
/// copies share one state. cancelled() is a single relaxed atomic load,
/// cheap enough to poll at partition boundaries.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// Trips the token. The first cause wins; later calls are no-ops.
  void Cancel(Status cause) {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->cause = std::move(cause);
    state_->cancelled.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// The Status that tripped the token; OK while untripped.
  Status cause() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->cause;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    Status cause;
  };
  std::shared_ptr<State> state_;
};

/// A minimal fixed-size worker pool with a barrier-style Wait().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe. Exceptions thrown by the task are
  /// captured, not propagated — see TakeStatus().
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Returns the first Status captured from a throwing task since the last
  /// TakeStatus() call, and resets it to OK. OK when nothing threw.
  Status TakeStatus();

  /// Tasks the watchdog observed running past CC_TASK_TIMEOUT_MS. Each
  /// task is counted at most once, monotone over the pool's lifetime, and
  /// always 0 when the watchdog is disabled (env unset or <= 0).
  uint64_t tasks_degraded() const {
    return tasks_degraded_.load(std::memory_order_relaxed);
  }

 private:
  // Per-worker watchdog sample slot: what the worker is running and since
  // when (steady-clock ms; 0 = idle). seq distinguishes tasks so one stuck
  // task is degraded once, not once per watchdog tick.
  struct WorkerSlot {
    std::atomic<int64_t> start_ms{0};
    std::atomic<uint64_t> seq{0};
    uint64_t flagged_seq = 0;  // watchdog thread only
  };

  void WorkerLoop(size_t worker_index);
  void WatchdogLoop(int64_t timeout_ms);
  void RecordException(std::exception_ptr eptr);

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;

  std::mutex status_mu_;
  Status first_error_;  // guarded by status_mu_

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::atomic<uint64_t> tasks_degraded_{0};
};

}  // namespace tsj

#endif  // TSJ_COMMON_THREAD_POOL_H_
