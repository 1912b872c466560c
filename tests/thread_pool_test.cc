#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tsj {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelFor(500, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.Submit([&] { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotTerminateThePool) {
  // Regression: a throwing task used to escape the worker loop and call
  // std::terminate. It must be captured as a Status instead, and the
  // pool must stay fully usable.
  ThreadPool pool(2);
  std::atomic<int> after{0};
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&] { after.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(after.load(), 1);
  Status s = pool.TakeStatus();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  // Pool survives and runs further batches.
  pool.Submit([&] { after.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(after.load(), 2);
}

TEST(ThreadPoolTest, TakeStatusReturnsFirstErrorAndResets) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Wait();
  pool.Submit([] { throw std::runtime_error("second"); });
  pool.Wait();
  Status s = pool.TakeStatus();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("first"), std::string::npos);
  EXPECT_TRUE(pool.TakeStatus().ok());  // reset on read
}

TEST(ThreadPoolTest, BadAllocMapsToResourceExhausted) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::bad_alloc(); });
  pool.Wait();
  EXPECT_EQ(pool.TakeStatus().code(), StatusCode::kResourceExhausted);
}

TEST(ThreadPoolTest, NonStdExceptionMapsToInternal) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });
  pool.Wait();
  EXPECT_EQ(pool.TakeStatus().code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, ParallelForSurvivesAThrowingIteration) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.ParallelFor(100, [&](size_t i) {
    if (i == 50) throw std::runtime_error("iteration 50");
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 99);
  EXPECT_FALSE(pool.TakeStatus().ok());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  // With 4 threads, 4 tasks that each wait for the others must finish
  // (deadlocks if tasks were serialized).
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      arrived.fetch_add(1);
      while (arrived.load() < 4) std::this_thread::yield();
    });
  }
  pool.Wait();
  EXPECT_EQ(arrived.load(), 4);
}

TEST(ThreadPoolTest, WorkerIndexIsInRangeAndDistinctAmongRunningTasks) {
  // Four tasks that each wait for the others run on the four workers at
  // once, so their indices must be 0..3 in some order.
  constexpr size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  std::atomic<size_t> arrived{0};
  std::vector<size_t> index(kWorkers, ThreadPool::kNotAWorker);
  for (size_t task = 0; task < kWorkers; ++task) {
    pool.Submit([&, task] {
      index[task] = ThreadPool::CurrentWorkerIndex();
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
    });
  }
  pool.Wait();
  std::sort(index.begin(), index.end());
  EXPECT_EQ(index, (std::vector<size_t>{0, 1, 2, 3}));
  // Any task, however many, reads an index below the worker count.
  std::vector<size_t> seen(200, ThreadPool::kNotAWorker);
  pool.ParallelFor(seen.size(),
                   [&](size_t i) { seen[i] = ThreadPool::CurrentWorkerIndex(); });
  for (const size_t worker : seen) EXPECT_LT(worker, kWorkers);
}

TEST(ThreadPoolTest, WorkerIndexIsTheSentinelOutsideThePool) {
  ThreadPool pool(2);
  pool.ParallelFor(4, [](size_t) {});
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  size_t other_thread = 0;
  std::thread thread(
      [&other_thread] { other_thread = ThreadPool::CurrentWorkerIndex(); });
  thread.join();
  EXPECT_EQ(other_thread, ThreadPool::kNotAWorker);
}

}  // namespace
}  // namespace tsj
