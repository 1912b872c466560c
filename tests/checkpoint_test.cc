// Checkpoint/restart and hedged-execution tier (the checkpoint and hedge
// contracts in mapreduce.h): completed map tasks sealed under
// checkpoint_dir, restarted runs skipping validated checkpoints with
// byte-identical results, corrupt or faulted checkpoints discarded and
// re-run (never trusted, never fatal), and watchdog-flagged stragglers
// hedged with a first-finisher-wins race that cannot change the answer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "gtest/gtest.h"
#include "hmj/hmj.h"
#include "mapreduce/mapreduce.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace {

// The injector is process-global; every test arms it through this fixture
// so a failing assertion can never leave a fault spec armed for the rest
// of the test binary (same pattern as fault_test.cc). Each test also gets
// a private checkpoint directory, removed afterwards. CC_CHECKPOINT_DIR
// is stashed and cleared for the test's duration: CI's sealing leg sets
// it process-wide, and the env override seals by design even where these
// tests assert that no checkpoint activity happened.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
    const char* env_dir = std::getenv("CC_CHECKPOINT_DIR");
    had_env_dir_ = env_dir != nullptr;
    if (had_env_dir_) {
      env_dir_ = env_dir;
      ::unsetenv("CC_CHECKPOINT_DIR");
    }
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            (std::string("ckpt-") + ::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().ConfigureFromEnv();
    if (had_env_dir_) ::setenv("CC_CHECKPOINT_DIR", env_dir_.c_str(), 1);
    std::filesystem::remove_all(dir_);
  }

  static Status Arm(const std::string& spec) {
    return FaultInjector::Global().Configure(spec);
  }

  std::string dir_;
  std::string env_dir_;
  bool had_env_dir_ = false;
};

// The canonical sorted job of the fault tests: key sums mod 13 over
// [0, n).
std::vector<std::pair<int, int>> KeySums(int n,
                                         const MapReduceOptions& options,
                                         JobStats* stats) {
  std::vector<int> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = i;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "ckpt-key-sums", inputs,
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

MapReduceOptions CheckpointedOptions(const std::string& dir) {
  MapReduceOptions options;
  options.num_workers = 2;
  options.checkpoint_dir = dir;
  options.checkpoint_fingerprint = 777;
  return options;
}

TEST_F(CheckpointTest, RestartAfterFatalFaultSkipsCheckpointedTasks) {
  // Run 1: every map task checkpoints, then the first reduce task fails
  // fatally (no retries) — the job aborts AFTER its map outputs were
  // sealed. Run 2 over the same directory skips every checkpointed map
  // task and must produce the byte-identical fault-free answer.
  const auto reference = KeySums(2000, {}, nullptr);
  MapReduceOptions options = CheckpointedOptions(dir_);
  options.max_task_retries = 0;

  ASSERT_TRUE(Arm("task.reduce=once").ok());
  JobStats aborted;
  EXPECT_TRUE(KeySums(2000, options, &aborted).empty());
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_GE(aborted.tasks_checkpointed, 1u);
  EXPECT_EQ(aborted.tasks_skipped_by_checkpoint, 0u);

  ASSERT_TRUE(Arm("").ok());
  JobStats restarted;
  EXPECT_EQ(KeySums(2000, options, &restarted), reference);
  EXPECT_TRUE(restarted.status.ok()) << restarted.status.ToString();
  EXPECT_EQ(restarted.tasks_skipped_by_checkpoint,
            aborted.tasks_checkpointed);
  EXPECT_GE(restarted.tasks_skipped_by_checkpoint, 1u);
}

TEST_F(CheckpointTest, RestartRestoresSpilledCheckpointsThroughTheMerge) {
  // Spill mode: the checkpoint segments carry merged disk runs and the
  // restore path adopts them as protected spill runs driving the k-way
  // reduce merge — the answer must still be byte-identical.
  const auto reference = KeySums(2000, {}, nullptr);
  MapReduceOptions options = CheckpointedOptions(dir_);
  options.max_task_retries = 0;
  options.memory_budget_records = 8;  // forces spilling

  ASSERT_TRUE(Arm("task.reduce=once").ok());
  JobStats aborted;
  EXPECT_TRUE(KeySums(2000, options, &aborted).empty());
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_GE(aborted.tasks_checkpointed, 1u);

  ASSERT_TRUE(Arm("").ok());
  JobStats restarted;
  EXPECT_EQ(KeySums(2000, options, &restarted), reference);
  EXPECT_TRUE(restarted.status.ok()) << restarted.status.ToString();
  EXPECT_GE(restarted.tasks_skipped_by_checkpoint, 1u);
  EXPECT_TRUE(restarted.spill_data_loss.ok());
}

TEST_F(CheckpointTest, CorruptManifestIsDiscardedAndTaskReruns) {
  // A single flipped bit in one manifest: that task re-runs from its
  // input (the corrupt checkpoint is discarded, never trusted), every
  // other task still skips, and the answer is byte-identical.
  const auto reference = KeySums(2000, {}, nullptr);
  const MapReduceOptions options = CheckpointedOptions(dir_);
  JobStats first;
  EXPECT_EQ(KeySums(2000, options, &first), reference);
  ASSERT_TRUE(first.status.ok());
  ASSERT_GE(first.tasks_checkpointed, 2u);

  std::vector<std::string> manifests;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".manifest") {
      manifests.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(manifests.size(), first.tasks_checkpointed);
  std::sort(manifests.begin(), manifests.end());
  {
    std::string bytes;
    {
      std::ifstream in(manifests[0], std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x10;
    std::ofstream out(manifests[0], std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  JobStats restarted;
  EXPECT_EQ(KeySums(2000, options, &restarted), reference);
  EXPECT_TRUE(restarted.status.ok()) << restarted.status.ToString();
  EXPECT_EQ(restarted.tasks_skipped_by_checkpoint,
            first.tasks_checkpointed - 1);
}

TEST_F(CheckpointTest, FaultedCheckpointWriteDegradesWithoutChangingResults) {
  // Every checkpoint write faults: the job keeps its results (checkpoints
  // are an optimization, never a failure mode), simply seals nothing, and
  // a restart re-runs everything.
  const auto reference = KeySums(2000, {}, nullptr);
  const MapReduceOptions options = CheckpointedOptions(dir_);
  ASSERT_TRUE(Arm("ckpt.write=every@1").ok());
  JobStats faulted;
  EXPECT_EQ(KeySums(2000, options, &faulted), reference);
  EXPECT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(faulted.tasks_checkpointed, 0u);
  EXPECT_GE(FaultInjector::Global().fired("ckpt.write"), 1u);

  ASSERT_TRUE(Arm("").ok());
  JobStats restarted;
  EXPECT_EQ(KeySums(2000, options, &restarted), reference);
  EXPECT_EQ(restarted.tasks_skipped_by_checkpoint, 0u);
}

TEST_F(CheckpointTest, FaultedCheckpointReadRerunsTheTask) {
  // Every restore faults: the persisted checkpoints are treated as
  // invalid, every task re-runs from its input, and the answer does not
  // change — a suspect checkpoint is never trusted.
  const auto reference = KeySums(2000, {}, nullptr);
  const MapReduceOptions options = CheckpointedOptions(dir_);
  JobStats first;
  EXPECT_EQ(KeySums(2000, options, &first), reference);
  ASSERT_GE(first.tasks_checkpointed, 1u);

  ASSERT_TRUE(Arm("ckpt.read=every@1").ok());
  JobStats restarted;
  EXPECT_EQ(KeySums(2000, options, &restarted), reference);
  EXPECT_TRUE(restarted.status.ok()) << restarted.status.ToString();
  EXPECT_EQ(restarted.tasks_skipped_by_checkpoint, 0u);
  EXPECT_GE(FaultInjector::Global().fired("ckpt.read"), 1u);
}

TEST_F(CheckpointTest, WatchdogFlaggedStragglerIsHedgedAndWinnerIsIdentical) {
  // The first attempt of the task holding record 0 sleeps far past the
  // watchdog timeout; the watchdog flags it, a hedged attempt re-runs the
  // same immutable input without the sleep, finishes first and wins. The
  // loser is cancelled and abandoned, so the result is byte-identical to
  // the straggler-free run.
  const auto reference = KeySums(64, {}, nullptr);
  std::atomic<int> slow_calls{0};
  auto slow_map = [&slow_calls](const int& v,
                                PartitionedEmitter<int, int>* out) {
    if (v == 0 && slow_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    out->Emit(v % 13, v);
  };
  auto reduce = [](const int& key, std::span<int> values,
                   std::vector<std::pair<int, int>>* out) {
    int total = 0;
    for (int v : values) total += v;
    out->emplace_back(key, total);
  };
  std::vector<int> inputs(64);
  for (int i = 0; i < 64; ++i) inputs[i] = i;

  // The pool reads the watchdog timeout at construction, inside the run.
  ::setenv("CC_TASK_TIMEOUT_MS", "40", 1);
  MapReduceOptions options;
  options.num_workers = 2;
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "hedge-race", inputs, slow_map, reduce, options, &stats);
  ::unsetenv("CC_TASK_TIMEOUT_MS");
  std::sort(result.begin(), result.end());

  EXPECT_EQ(result, reference);
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
  EXPECT_GE(stats.tasks_degraded, 1u);  // the watchdog flagged the primary
}

TEST_F(CheckpointTest, HedgingCanBeDisabledAndIsInertWithoutTheWatchdog) {
  const auto reference = KeySums(64, {}, nullptr);
  std::atomic<int> slow_calls{0};
  auto slow_map = [&slow_calls](const int& v,
                                PartitionedEmitter<int, int>* out) {
    if (v == 0 && slow_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
    out->Emit(v % 13, v);
  };
  auto reduce = [](const int& key, std::span<int> values,
                   std::vector<std::pair<int, int>>* out) {
    int total = 0;
    for (int v : values) total += v;
    out->emplace_back(key, total);
  };
  std::vector<int> inputs(64);
  for (int i = 0; i < 64; ++i) inputs[i] = i;

  // Watchdog armed but hedging switched off: flagged, never hedged.
  ::setenv("CC_TASK_TIMEOUT_MS", "40", 1);
  MapReduceOptions no_hedge;
  no_hedge.num_workers = 2;
  no_hedge.enable_hedged_execution = false;
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "hedge-off", inputs, slow_map, reduce, no_hedge, &stats);
  ::unsetenv("CC_TASK_TIMEOUT_MS");
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, reference);
  EXPECT_EQ(stats.hedges_launched, 0u);
  EXPECT_EQ(stats.hedges_won, 0u);

  // No watchdog: hedging enabled but inert.
  slow_calls.store(0);
  MapReduceOptions no_watchdog;
  no_watchdog.num_workers = 2;
  JobStats quiet;
  auto result2 = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "hedge-no-watchdog", inputs, slow_map, reduce, no_watchdog, &quiet);
  std::sort(result2.begin(), result2.end());
  EXPECT_EQ(result2, reference);
  EXPECT_EQ(quiet.hedges_launched, 0u);
}

// ---- Join-level gating -----------------------------------------------------

RingWorkloadOptions SmallWorkload() {
  RingWorkloadOptions options;
  options.num_accounts = 300;
  options.num_rings = 10;
  options.min_ring_size = 3;
  options.max_ring_size = 6;
  options.names.vocabulary_size = 600;
  options.names.min_tokens = 2;
  options.names.max_tokens = 3;
  options.names.min_syllables = 2;
  options.perturb.min_char_edits = 1;
  options.perturb.max_char_edits = 1;
  options.perturb.drop_token_probability = 0;
  options.perturb.abbreviate_probability = 0;
  options.perturb.boundary_shift_probability = 0;
  return options;
}

std::vector<std::tuple<uint32_t, uint32_t, double>> SortedPairs(
    const std::vector<TsjPair>& pairs) {
  std::vector<std::tuple<uint32_t, uint32_t, double>> sorted;
  sorted.reserve(pairs.size());
  for (const TsjPair& p : pairs) sorted.emplace_back(p.a, p.b, p.nsld);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

TEST_F(CheckpointTest, TsjRestartAfterFatalFaultIsByteIdentical) {
  const RingWorkload workload = GenerateRingWorkload(SmallWorkload());
  TsjOptions options;
  options.threshold = 0.15;
  options.max_token_frequency = 1u << 30;
  const auto reference = TokenizedStringJoiner(options).SelfJoin(
      workload.corpus);
  ASSERT_TRUE(reference.ok());

  TsjOptions ckpt = options;
  ckpt.enable_checkpointing = true;
  ckpt.mapreduce.checkpoint_dir = dir_;
  ckpt.mapreduce.max_task_retries = 0;

  ASSERT_TRUE(Arm("task.reduce=once").ok());
  TsjRunInfo aborted_info;
  const auto aborted =
      TokenizedStringJoiner(ckpt).SelfJoin(workload.corpus, &aborted_info);
  EXPECT_FALSE(aborted.ok());
  EXPECT_GE(aborted_info.tasks_checkpointed, 1u);

  ASSERT_TRUE(Arm("").ok());
  TsjRunInfo restarted_info;
  const auto restarted =
      TokenizedStringJoiner(ckpt).SelfJoin(workload.corpus, &restarted_info);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(SortedPairs(*restarted), SortedPairs(*reference));
  EXPECT_GE(restarted_info.tasks_skipped_by_checkpoint, 1u);
}

TEST_F(CheckpointTest, JoinLevelSwitchGatesTheEngineDirectory) {
  // checkpoint_dir set but enable_checkpointing left off: the gate strips
  // the directory, nothing is sealed, nothing is restored.
  const RingWorkload workload = GenerateRingWorkload(SmallWorkload());
  TsjOptions options;
  options.threshold = 0.15;
  options.max_token_frequency = 1u << 30;
  options.mapreduce.checkpoint_dir = dir_;  // switch NOT set
  TsjRunInfo info;
  const auto pairs =
      TokenizedStringJoiner(options).SelfJoin(workload.corpus, &info);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(info.tasks_checkpointed, 0u);
  EXPECT_EQ(info.tasks_skipped_by_checkpoint, 0u);
  EXPECT_TRUE(!std::filesystem::exists(dir_) ||
              std::filesystem::is_empty(dir_));
}

TEST_F(CheckpointTest, HmjRestartAfterWorkLimitedRunMatchesFreshRun) {
  // A work-limited HMJ run that trips its limit (DNF) stops its map tasks
  // early. Restarting over the same directory, without the limit, must
  // give a fresh run's (pair, NSLD) set: none of the limited run's
  // truncated tasks may be restored. Fig. 7's corpus shape: 2-4 tokens
  // of 2-4 syllables.
  RingWorkloadOptions workload_options;
  workload_options.num_accounts = 400;
  workload_options.num_rings = 16;
  workload_options.names.min_tokens = 2;
  workload_options.names.max_tokens = 4;
  workload_options.names.min_syllables = 2;
  workload_options.names.max_syllables = 4;
  const RingWorkload workload = GenerateRingWorkload(workload_options);
  HmjOptions options;
  options.threshold = 0.1;
  options.mapreduce.num_workers = 4;
  const auto fresh = HybridMetricJoiner(options).SelfJoin(workload.corpus);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_FALSE(fresh->empty());

  HmjOptions ckpt = options;
  ckpt.enable_checkpointing = true;
  ckpt.mapreduce.checkpoint_dir = dir_;
  ckpt.work_limit = 5000;  // the map phase alone needs 400 x 64 distances
  HmjRunInfo limited_info;
  ASSERT_TRUE(
      HybridMetricJoiner(ckpt).SelfJoin(workload.corpus, &limited_info).ok());
  EXPECT_FALSE(limited_info.completed);
  EXPECT_EQ(limited_info.tasks_checkpointed, 0u);

  // The same limit again: still a DNF, never a restored "complete" run.
  HmjRunInfo again_info;
  ASSERT_TRUE(
      HybridMetricJoiner(ckpt).SelfJoin(workload.corpus, &again_info).ok());
  EXPECT_FALSE(again_info.completed);
  EXPECT_EQ(again_info.tasks_skipped_by_checkpoint, 0u);

  ckpt.work_limit = 0;
  HmjRunInfo restarted_info;
  const auto restarted =
      HybridMetricJoiner(ckpt).SelfJoin(workload.corpus, &restarted_info);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE(restarted_info.completed);
  EXPECT_EQ(restarted_info.tasks_skipped_by_checkpoint, 0u);
  EXPECT_GE(restarted_info.tasks_checkpointed, 1u);
  EXPECT_EQ(SortedPairs(*restarted), SortedPairs(*fresh));

  // The unlimited run's own checkpoints are complete: a further restart
  // restores them and still matches.
  HmjRunInfo restored_info;
  const auto restored =
      HybridMetricJoiner(ckpt).SelfJoin(workload.corpus, &restored_info);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored_info.completed);
  EXPECT_GE(restored_info.tasks_skipped_by_checkpoint, 1u);
  EXPECT_EQ(SortedPairs(*restored), SortedPairs(*fresh));
}

}  // namespace
}  // namespace tsj
