#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <new>
#include <string>

namespace tsj {

namespace {

thread_local size_t current_worker_index = ThreadPool::kNotAWorker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

size_t ThreadPool::CurrentWorkerIndex() { return current_worker_index; }

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

void ThreadPool::WorkerLoop(size_t index) {
  current_worker_index = index;
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
    try {
      task();
    } catch (...) {
      RecordException(std::current_exception());
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace tsj
