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
//
// Each worker knows its index in its pool (CurrentWorkerIndex), so a task
// can keep per-worker state, such as counter slots, that no other running
// task writes.

#ifndef TSJ_COMMON_THREAD_POOL_H_
#define TSJ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
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

  /// What CurrentWorkerIndex() returns on a thread no ThreadPool started.
  static constexpr size_t kNotAWorker = std::numeric_limits<size_t>::max();

  /// The index of the calling thread among the workers of the pool that
  /// started it: in [0, num_threads()), distinct for the workers of one
  /// pool and fixed for the thread's life. kNotAWorker on any other
  /// thread.
  static size_t CurrentWorkerIndex();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Returns the first Status captured from a throwing task since the last
  /// TakeStatus() call, and resets it to OK. OK when nothing threw.
  Status TakeStatus();

 private:
  void WorkerLoop(size_t index);
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
};

}  // namespace tsj

#endif  // TSJ_COMMON_THREAD_POOL_H_
