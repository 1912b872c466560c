// Fault-tolerance tier: the deterministic FaultInjector (CC_FAULT_SPEC
// grammar, once/every/probability schedules, counters), the cooperative
// CancellationToken, the task-retry layer of all three MapReduce engines
// (retryable faults absorbed losslessly, fatal faults aborting with a
// clean root-cause Status), the injector-driven spill fault routing, and
// the parse of the CC_* overrides CI arms.

#include "common/fault.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "mapreduce/mapreduce.h"

namespace tsj {
namespace {

// The injector is process-global; every test arms it through this fixture
// so a failing assertion can never leave a fault spec armed for the rest
// of the test binary. TearDown restores the CC_FAULT_SPEC environment
// configuration (the documented pattern for injector-using tests).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  }
  void TearDown() override { FaultInjector::Global().ConfigureFromEnv(); }

  static Status Arm(const std::string& spec) {
    return FaultInjector::Global().Configure(spec);
  }
};

// ---- Spec grammar ----------------------------------------------------------

TEST_F(FaultTest, EmptySpecDisarms) {
  ASSERT_TRUE(Arm("").ok());
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(FAULT_POINT("task.map").ok());
  EXPECT_EQ(FaultInjector::Global().total_fired(), 0u);
}

TEST_F(FaultTest, MalformedSpecsAreRejectedAndLeaveConfigInPlace) {
  ASSERT_TRUE(Arm("task.map=once").ok());
  for (const char* bad :
       {"noequals", "=once", "task.map=", "task.map=maybe",
        "task.map=once@0", "task.map=once@x", "task.map=every@0",
        "task.map=every@", "task.map=p1.5", "task.map=p-0.1", "task.map=p",
        "task.map=p0.5@seedz", "task.map=pnan", "task.map=p-nan",
        "task.map=once;task.map=every@2", "task.mpa=once",
        "ckpt.write=once"}) {
    Status s = Arm(bad);
    EXPECT_FALSE(s.ok()) << "spec '" << bad << "' should be rejected";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  // The last good configuration survived every rejected one.
  EXPECT_TRUE(FaultInjector::Global().enabled());
  EXPECT_FALSE(FAULT_POINT("task.map").ok());
}

TEST_F(FaultTest, MultiEntrySpecArmsEverySite) {
  ASSERT_TRUE(Arm("task.map=once;task.reduce=every@2;spill.write=p1.0").ok());
  EXPECT_FALSE(FAULT_POINT("task.map").ok());
  EXPECT_TRUE(FAULT_POINT("task.map").ok());      // once: only the first
  EXPECT_TRUE(FAULT_POINT("task.reduce").ok());   // every@2: k=1 passes
  EXPECT_FALSE(FAULT_POINT("task.reduce").ok());  // k=2 fires
  EXPECT_FALSE(FAULT_POINT("spill.write").ok());  // p=1: always fires
  EXPECT_TRUE(FAULT_POINT("unarmed.site").ok());
  EXPECT_EQ(FaultInjector::Global().total_fired(), 3u);
}

TEST_F(FaultTest, OnceAtNFiresExactlyTheNthEvaluation) {
  ASSERT_TRUE(Arm("task.map=once@4").ok());
  for (uint64_t k = 1; k <= 10; ++k) {
    EXPECT_EQ(FAULT_POINT("task.map").ok(), k != 4) << "k=" << k;
  }
  EXPECT_EQ(FaultInjector::Global().fired("task.map"), 1u);
  EXPECT_EQ(FaultInjector::Global().evaluations("task.map"), 10u);
}

TEST_F(FaultTest, EveryAtNFiresEveryNth) {
  ASSERT_TRUE(Arm("task.map=every@3").ok());
  uint64_t fired = 0;
  for (uint64_t k = 1; k <= 12; ++k) {
    if (!FAULT_POINT("task.map").ok()) ++fired;
  }
  EXPECT_EQ(fired, 4u);
  EXPECT_EQ(FaultInjector::Global().fired("task.map"), 4u);
}

TEST_F(FaultTest, ProbabilityScheduleIsAPureFunctionOfSeedAndIndex) {
  auto schedule = [&](const std::string& spec) {
    EXPECT_TRUE(Arm(spec).ok());
    std::vector<bool> fires;
    for (int k = 0; k < 300; ++k) {
      fires.push_back(!FAULT_POINT("task.map").ok());
    }
    return fires;
  };
  const std::vector<bool> first = schedule("task.map=p0.3@seed7");
  const std::vector<bool> replay = schedule("task.map=p0.3@seed7");
  EXPECT_EQ(first, replay);  // same spec -> identical schedule
  const size_t hits =
      static_cast<size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, 40u);   // ~90 expected; loose 3-sigma-ish bounds
  EXPECT_LT(hits, 160u);
  // A different seed produces a different schedule (with p=0.3 over 300
  // draws, collision odds are astronomically small).
  EXPECT_NE(schedule("task.map=p0.3@seed8"), first);
}

TEST_F(FaultTest, AllocSitesModelMemoryPressureOthersUnavailability) {
  ASSERT_TRUE(Arm("alloc.shuffle=once;task.map=once").ok());
  Status alloc = FAULT_POINT("alloc.shuffle");
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.code(), StatusCode::kResourceExhausted);
  Status task = FAULT_POINT("task.map");
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.code(), StatusCode::kUnavailable);
  EXPECT_NE(task.message().find("task.map"), std::string::npos);
}

TEST_F(FaultTest, ConfigureResetsCounters) {
  ASSERT_TRUE(Arm("task.map=every@1").ok());
  for (int i = 0; i < 5; ++i) (void)FAULT_POINT("task.map");
  EXPECT_EQ(FaultInjector::Global().fired("task.map"), 5u);
  ASSERT_TRUE(Arm("task.map=every@1").ok());
  EXPECT_EQ(FaultInjector::Global().fired("task.map"), 0u);
  EXPECT_EQ(FaultInjector::Global().evaluations("task.map"), 0u);
}

TEST_F(FaultTest, KeyedEvaluationDecidesFromTheKeyNotTheOrder) {
  // FAULT_POINT_AT's fire decision is a pure function of (spec, k), so a
  // key set produces the same fired set in any evaluation order — the
  // property retried attempts rely on, since a retried task re-evaluates
  // its site while its siblings run (fault.h "Keyed evaluation"). A
  // *replayed* key fires again, which is exactly why two attempts of one
  // task must use distinct keys.
  const std::vector<uint64_t> keys = {9, 2, 5, 7, 1, 3, 5, 8};
  auto fired_set = [&](std::vector<uint64_t> order) {
    EXPECT_TRUE(Arm("task.map=once@5").ok());
    std::vector<uint64_t> fired;
    for (uint64_t k : order) {
      if (!FAULT_POINT_AT("task.map", k).ok()) fired.push_back(k);
    }
    std::sort(fired.begin(), fired.end());
    return fired;
  };
  const std::vector<uint64_t> expected = {5, 5};
  EXPECT_EQ(fired_set(keys), expected);
  std::vector<uint64_t> reversed(keys.rbegin(), keys.rend());
  EXPECT_EQ(fired_set(reversed), expected);
  // The counter keeps counting for observability but no longer decides.
  EXPECT_EQ(FaultInjector::Global().evaluations("task.map"), keys.size());
}

TEST_F(FaultTest, KeyedProbabilityScheduleSurvivesThreadedInterleaving) {
  // The per-key decisions of a probability spec must be identical whether
  // the keys are evaluated serially or raced across threads — the
  // counter-indexed path can't promise that, the keyed path must.
  ASSERT_TRUE(Arm("task.map=p0.3@seed11").ok());
  constexpr uint64_t kKeys = 256;
  std::vector<char> serial(kKeys + 1, 0);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    serial[k] = FAULT_POINT_AT("task.map", k).ok() ? 0 : 1;
  }
  ASSERT_TRUE(Arm("task.map=p0.3@seed11").ok());
  std::vector<char> threaded(kKeys + 1, 0);
  {
    ThreadPool pool(8);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      pool.Submit([k, &threaded] {
        threaded[k] = FAULT_POINT_AT("task.map", k).ok() ? 0 : 1;
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(serial, threaded);
}

TEST_F(FaultTest, ReserveBlockClaimsDisjointRangesAndResets) {
  ASSERT_TRUE(Arm("task.map=once@12").ok());
  FaultInjector& injector = FaultInjector::Global();
  // Sequential reservations claim contiguous, disjoint ranges.
  EXPECT_EQ(injector.ReserveBlock("task.map", 10), 0u);
  EXPECT_EQ(injector.ReserveBlock("task.map", 5), 10u);
  EXPECT_EQ(injector.ReserveBlock("task.map", 1), 15u);
  // Unknown (disarmed) sites share the harmless zero base.
  EXPECT_EQ(injector.ReserveBlock("unarmed.site", 10), 0u);
  // Configure resets reservations like the counters.
  ASSERT_TRUE(Arm("task.map=once@12").ok());
  EXPECT_EQ(injector.ReserveBlock("task.map", 4), 0u);
}

TEST_F(FaultTest, OncePerProcessAcrossReservedPhases) {
  // Two sequential "phases" of 10 tasks each, keyed base + task + 1 like
  // the engines: once@12 fires in the second phase (task index 1), and
  // ONLY there — once per process, not once per phase, the regression
  // the reservation scheme exists to prevent.
  ASSERT_TRUE(Arm("task.map=once@12").ok());
  FaultInjector& injector = FaultInjector::Global();
  std::vector<std::pair<int, uint64_t>> fired;  // (phase, task)
  for (int phase = 0; phase < 3; ++phase) {
    const uint64_t base = injector.ReserveBlock("task.map", 10);
    for (uint64_t task = 0; task < 10; ++task) {
      if (!FAULT_POINT_AT("task.map", base + task + 1).ok()) {
        fired.emplace_back(phase, task);
      }
    }
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<int, uint64_t>{1, 1}));
}

// ---- CancellationToken -----------------------------------------------------

TEST(CancellationTokenTest, FirstCauseWins) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.cause().ok());
  token.Cancel(Status::Unavailable("root cause"));
  token.Cancel(Status::Internal("latecomer"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause().code(), StatusCode::kUnavailable);
  EXPECT_EQ(token.cause().message(), "root cause");
}

TEST(CancellationTokenTest, CopiesShareOneState) {
  CancellationToken token;
  CancellationToken copy = token;
  copy.Cancel(Status::Internal("via copy"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause().code(), StatusCode::kInternal);
}

// ---- Engine-level retry ----------------------------------------------------

// The canonical sorted job of the fault tests (same shape as the spill
// fault tier): key sums mod 13 over [0, n).
std::vector<std::pair<int, int>> KeySums(int n, const MapReduceOptions& options,
                                         JobStats* stats) {
  std::vector<int> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = i;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "fault-key-sums", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(v % 13, v);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(key, total);
      },
      options, stats);
  std::sort(result.begin(), result.end());
  return result;
}

TEST_F(FaultTest, MapStartFaultIsRetriedLosslessly) {
  const auto reference = KeySums(500, {}, nullptr);
  MapReduceOptions options;
  options.num_workers = 4;
  ASSERT_TRUE(Arm("task.map=once").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_EQ(faulted, reference);  // byte-identical despite the fault
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.task_failures, 1u);
  EXPECT_EQ(stats.task_retries, 1u);
  EXPECT_EQ(stats.tasks_cancelled, 0u);
  EXPECT_EQ(FaultInjector::Global().fired("task.map"), 1u);
}

TEST_F(FaultTest, ReduceAndShuffleFaultsAreRetriedLosslessly) {
  const auto reference = KeySums(500, {}, nullptr);
  MapReduceOptions options;
  options.num_workers = 2;
  ASSERT_TRUE(Arm("task.reduce=once@2;alloc.shuffle=once").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_EQ(faulted, reference);
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  // Under an ambient CC_SHUFFLE_SPILL_BUDGET the sorted engine has no
  // shuffle-concat phase (runs are pre-sorted; the merge happens inside
  // reduce), so the alloc.shuffle site is legitimately never evaluated
  // there — expect one absorbed fault per site that actually fired.
  const uint64_t shuffle_faults =
      FaultInjector::Global().fired("alloc.shuffle");
  EXPECT_LE(shuffle_faults, 1u);
  EXPECT_EQ(stats.task_failures, 1u + shuffle_faults);
  EXPECT_EQ(stats.task_retries, 1u + shuffle_faults);
}

TEST_F(FaultTest, RetryExhaustionAbortsWithRootCauseNotAHangOrCrash) {
  MapReduceOptions options;
  options.num_workers = 4;
  options.max_task_retries = 2;
  ASSERT_TRUE(Arm("task.map=every@1").ok());  // every attempt fails
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_TRUE(faulted.empty());  // aborted jobs never return partial output
  ASSERT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
  // The exhausted task burned 1 + max_task_retries attempts; sibling
  // tasks either failed their own way to exhaustion or were cancelled.
  EXPECT_GE(stats.task_failures, options.max_task_retries + 1);
  EXPECT_GE(stats.task_retries, options.max_task_retries);
}

TEST_F(FaultTest, ZeroRetriesMeansFirstFaultIsFatal) {
  MapReduceOptions options;
  options.num_workers = 2;
  options.max_task_retries = 0;
  ASSERT_TRUE(Arm("task.reduce=once").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_TRUE(faulted.empty());
  ASSERT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.task_failures, 1u);
  EXPECT_EQ(stats.task_retries, 0u);
}

TEST_F(FaultTest, ManyTasksCancelledAfterFatalFault) {
  // One worker, many partitions: after the first reduce task exhausts its
  // retries and trips the token, the remaining partitions must bail at
  // their start checks (counted), not run to completion.
  MapReduceOptions options;
  options.num_workers = 1;
  options.num_partitions = 16;
  options.max_task_retries = 1;
  ASSERT_TRUE(Arm("task.reduce=every@1").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_TRUE(faulted.empty());
  EXPECT_FALSE(stats.status.ok());
  EXPECT_GE(stats.tasks_cancelled, 1u);
}

TEST_F(FaultTest, ThrowingMapperBecomesInternalStatusNotTermination) {
  MapReduceOptions options;
  options.num_workers = 2;
  JobStats stats;
  std::vector<int> inputs(100);
  for (int i = 0; i < 100; ++i) inputs[i] = i;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "fault-throwing-map", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        if (v == 37) throw std::runtime_error("mapper exploded");
        out->Emit(v % 13, v);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        out->emplace_back(key, static_cast<int>(values.size()));
      },
      options, &stats);
  // A C++ exception is not a transient fault: fatal, job aborted.
  EXPECT_TRUE(result.empty());
  ASSERT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInternal);
  EXPECT_NE(stats.status.message().find("mapper exploded"), std::string::npos);
}

TEST_F(FaultTest, MapAttemptStopsAtItsNextRecordAfterAnAbort) {
  // 2,000 inputs over 2 workers make 8 map tasks of 250 records. Task 0's
  // mapper throws on record 0, which is fatal, but only once task 1 is
  // running, so task 1 cannot bail at its start check instead. Task 1
  // waits at its first record (250) until that throw has happened, then
  // sleeps long enough for the abort to trip the job token. The map
  // loop's per-record poll must stop task 1 there: its mapper runs for 1
  // of its 250 records.
  MapReduceOptions options;
  options.num_workers = 2;
  options.max_task_retries = 0;
  std::atomic<bool> task1_running{false};
  std::atomic<bool> thrown{false};
  std::atomic<int> task1_mapped{0};
  std::vector<int> inputs(2000);
  for (int i = 0; i < 2000; ++i) inputs[i] = i;
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "fault-aborted-map", inputs,
      [&](const int& v, PartitionedEmitter<int, int>* out) {
        if (v == 0) {
          while (!task1_running.load()) std::this_thread::yield();
          thrown.store(true);
          throw std::runtime_error("map task 0 failed");
        }
        if (v >= 250 && v < 500) task1_mapped.fetch_add(1);
        if (v == 250) {
          task1_running.store(true);
          while (!thrown.load()) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        out->Emit(v % 13, v);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        out->emplace_back(key, static_cast<int>(values.size()));
      },
      options, &stats);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.status.code(), StatusCode::kInternal);
  EXPECT_EQ(task1_mapped.load(), 1);
}

TEST_F(FaultTest, BadAllocInMapperIsRetriedWithEmitterReset) {
  // std::bad_alloc maps to ResourceExhausted (retryable). The first
  // attempt dies mid-emission, so the retry only stays lossless because
  // the engine abandons the partial emitter state before re-running —
  // under a spill budget that includes partially spilled runs.
  const auto reference = KeySums(500, {}, nullptr);
  MapReduceOptions options;
  options.num_workers = 2;
  options.memory_budget_records = 8;  // spill in play during the retry
  std::atomic<bool> thrown{false};
  std::vector<int> inputs(500);
  for (int i = 0; i < 500; ++i) inputs[i] = i;
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "fault-key-sums", inputs,
      [&thrown](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(v % 13, v);  // partial state exists before the throw
        if (v % 250 == 249 && !thrown.exchange(true)) throw std::bad_alloc();
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(key, total);
      },
      options, &stats);
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, reference);  // no loss, no duplicates from the retry
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.task_failures, 1u);
  EXPECT_EQ(stats.task_retries, 1u);
}

// ---- Injector-driven spill faults ------------------------------------------

TEST_F(FaultTest, InjectedSpillWriteFaultsDegradeWithoutRecordLoss) {
  const auto reference = KeySums(500, {}, nullptr);
  MapReduceOptions options;
  options.num_workers = 2;
  options.memory_budget_records = 8;  // forces spill attempts
  ASSERT_TRUE(Arm("spill.write=every@1").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  // Same contract as the SpillIo-seam tests: records fall back to
  // memory, output complete, fault reported as degraded (not lossy).
  EXPECT_EQ(faulted, reference);
  EXPECT_FALSE(stats.spill_status.ok());
  EXPECT_TRUE(stats.spill_data_loss.ok());
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_GE(FaultInjector::Global().fired("spill.write"), 1u);
}

TEST_F(FaultTest, InjectedMergeReadFaultIsReportedAsDataLoss) {
  MapReduceOptions options;
  options.num_workers = 1;
  options.memory_budget_records = 8;
  ASSERT_TRUE(Arm("merge.read=once").ok());
  JobStats stats;
  (void)KeySums(500, options, &stats);  // must complete, never crash
  EXPECT_GT(stats.spilled_records, 0u);
  EXPECT_FALSE(stats.spill_status.ok());
  EXPECT_FALSE(stats.spill_data_loss.ok());  // lossy class
  EXPECT_EQ(FaultInjector::Global().fired("merge.read"), 1u);
}

TEST_F(FaultTest, InjectedSpillOpenFaultDegradesTheWritePath) {
  const auto reference = KeySums(500, {}, nullptr);
  MapReduceOptions options;
  options.num_workers = 2;
  options.memory_budget_records = 8;
  ASSERT_TRUE(Arm("spill.open=every@1").ok());
  JobStats stats;
  const auto faulted = KeySums(500, options, &stats);
  EXPECT_EQ(faulted, reference);  // no run ever opened -> all in memory
  EXPECT_EQ(stats.spilled_records, 0u);
  EXPECT_FALSE(stats.spill_status.ok());
  EXPECT_TRUE(stats.spill_data_loss.ok());
}

// ---- CC_* overrides --------------------------------------------------------

// CI arms whole legs of the fast tier through CC_FAULT_SPEC and
// CC_SHUFFLE_SPILL_BUDGET. A malformed value fails nothing at run time:
// the injector disarms with one stderr line and the budget reads 0 (no
// spill), so a typo would silently turn its leg into a plain run. This
// test fails such a leg instead. An unset variable checks nothing.
TEST(EnvOverrideTest, ArmedOverridesParse) {
  if (const char* spec = std::getenv("CC_FAULT_SPEC");
      spec != nullptr && spec[0] != '\0') {
    const Status s = FaultInjector::Global().Configure(spec);
    FaultInjector::Global().ConfigureFromEnv();
    EXPECT_TRUE(s.ok()) << "CC_FAULT_SPEC='" << spec << "': " << s.ToString();
  }
  if (const char* budget = std::getenv("CC_SHUFFLE_SPILL_BUDGET");
      budget != nullptr) {
    EXPECT_GT(SpillBudgetFromEnv(), 0u)
        << "CC_SHUFFLE_SPILL_BUDGET='" << budget << "' is not a positive "
        << "record count";
  }
}

}  // namespace
}  // namespace tsj
