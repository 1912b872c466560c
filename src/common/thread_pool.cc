#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <new>
#include <string>

#include "common/parse.h"

namespace tsj {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CC_TASK_TIMEOUT_MS: positive integer enables the watchdog; anything
// else (unset, empty, non-numeric, <= 0, overflowing, trailing junk)
// disables it. The hardened parse matters: strtoll without an ERANGE
// check saturates an overflowing value to LLONG_MAX, which arms a
// watchdog whose timeout can never elapse — the knob looks set but the
// feature is silently dead.
int64_t WatchdogTimeoutMsFromEnv() {
  const uint64_t value =
      ParsePositiveInt(std::getenv("CC_TASK_TIMEOUT_MS"),
                       static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::max()));
  return static_cast<int64_t>(value);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  slots_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    slots_.emplace_back(std::make_unique<WorkerSlot>());
  }
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (const int64_t timeout_ms = WatchdogTimeoutMsFromEnv();
      timeout_ms > 0) {
    watchdog_ = std::thread([this, timeout_ms] { WatchdogLoop(timeout_ms); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& t : threads_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  Wait();
}

Status ThreadPool::TakeStatus() {
  std::lock_guard<std::mutex> lock(status_mu_);
  Status taken = std::move(first_error_);
  first_error_ = Status::OK();
  return taken;
}

void ThreadPool::RecordException(std::exception_ptr eptr) {
  Status status = Status::Internal("task threw an unknown exception type");
  try {
    std::rethrow_exception(eptr);
  } catch (const std::bad_alloc&) {
    status = Status::ResourceExhausted("task threw std::bad_alloc");
  } catch (const std::exception& e) {
    status = Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    // keep the unknown-type default
  }
  std::lock_guard<std::mutex> lock(status_mu_);
  if (first_error_.ok()) first_error_ = std::move(status);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  WorkerSlot& slot = *slots_[worker_index];
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    slot.seq.fetch_add(1, std::memory_order_relaxed);
    slot.start_ms.store(NowMs(), std::memory_order_release);
    try {
      task();
    } catch (...) {
      RecordException(std::current_exception());
    }
    slot.start_ms.store(0, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::WatchdogLoop(int64_t timeout_ms) {
  const auto tick =
      std::chrono::milliseconds(std::max<int64_t>(1, timeout_ms / 4));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (true) {
    watchdog_cv_.wait_for(lock, tick);
    {
      std::unique_lock<std::mutex> pool_lock(mu_);
      if (shutdown_) return;
    }
    const int64_t now = NowMs();
    for (auto& slot_ptr : slots_) {
      WorkerSlot& slot = *slot_ptr;
      const int64_t start = slot.start_ms.load(std::memory_order_acquire);
      if (start == 0 || now - start < timeout_ms) continue;
      const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
      if (seq == slot.flagged_seq) continue;  // already counted this task
      // Re-check that the same task is still on the worker: if it
      // finished between the two loads, the start we saw is stale.
      if (slot.start_ms.load(std::memory_order_acquire) != start) continue;
      slot.flagged_seq = seq;
      tasks_degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace tsj
