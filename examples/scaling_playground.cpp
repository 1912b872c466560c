// Scaling playground: run the full TSJ pipeline on a synthetic corpus,
// print its counters and per-job breakdown, then time the same self-join
// at 1, 2 and 4 workers on this host — the measurement behind the Figs.
// 1-3 harnesses, exposed interactively.
//
// Run: ./build/example_scaling_playground [accounts] [threshold]
//   accounts: an integer >= 5 (default 20000); the workload draws one
//   vocabulary token per 5 accounts.
//   threshold: an NSLD threshold in [0, 1) (default 0.1).
// Exit status: 0 on success, 1 when a join fails, 2 on a malformed
// argument.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <thread>

#include "common/parse.h"
#include "common/stopwatch.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

namespace {

constexpr uint64_t kMinAccounts = 5;

int Usage() {
  std::cerr << "usage: example_scaling_playground [accounts >= "
            << kMinAccounts << "] [threshold in [0, 1)]\n";
  return 2;
}

int JoinFailed(const tsj::Status& status) {
  std::cerr << "join failed: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) return Usage();
  uint64_t accounts = 20000;
  if (argc > 1) {
    accounts = tsj::ParsePositiveInt(argv[1],
                                     std::numeric_limits<uint32_t>::max());
    if (accounts < kMinAccounts) return Usage();
  }
  double threshold = 0.1;
  if (argc > 2 && !tsj::ParseThreshold(argv[2], &threshold)) return Usage();

  tsj::RingWorkloadOptions workload_options;
  workload_options.num_accounts = accounts;
  workload_options.names.vocabulary_size = accounts / kMinAccounts;
  const auto workload = tsj::GenerateRingWorkload(workload_options);

  tsj::TsjOptions options;
  options.threshold = threshold;
  tsj::TsjRunInfo info;
  const tsj::Stopwatch join_watch;
  const auto pairs =
      tsj::TokenizedStringJoiner(options).SelfJoin(workload.corpus, &info);
  const double join_seconds = join_watch.ElapsedSeconds();
  if (!pairs.ok()) return JoinFailed(pairs.status());

  std::cout << "TSJ self-join of " << accounts << " accounts at T="
            << threshold << "\n";
  std::cout << "  result pairs:           " << pairs->size() << "\n";
  std::cout << "  shared-token cands:     " << info.shared_token_candidates
            << "\n";
  std::cout << "  similar-token cands:    " << info.similar_token_candidates
            << "\n";
  std::cout << "  length-skipped:         " << info.length_filtered
            << " (before dedup)\n";
  std::cout << "  bag-skipped:            " << info.bag_filtered
            << " (before dedup)\n";
  std::cout << "  distinct candidates:    " << info.distinct_candidates
            << "\n";
  std::cout << "  histogram-filtered:     " << info.histogram_filtered
            << "\n";
  std::cout << "  fully verified:         " << info.verified_candidates
            << "\n";
  std::cout << "  local wall time:        " << join_seconds << " s\n";
  std::cout << "    in jobs:              "
            << info.pipeline.total_wall_seconds() << " s\n\n";

  std::cout << "per-job pipeline breakdown:\n";
  for (const auto& job : info.pipeline.jobs) {
    std::cout << "  " << job.name << ": input=" << job.input_records
              << " map-out=" << job.map_output_records
              << " groups=" << job.num_groups
              << " out=" << job.reduce_output_records << "\n";
  }

  std::cout << "\nmeasured on one host, "
            << std::thread::hardware_concurrency()
            << " hardware threads (median of 3 joins):\n";
  for (size_t workers : {1, 2, 4}) {
    options.mapreduce.num_workers = workers;
    const tsj::TokenizedStringJoiner joiner(options);
    double seconds[3];
    for (double& run_seconds : seconds) {
      tsj::Stopwatch watch;
      const auto timed = joiner.SelfJoin(workload.corpus);
      run_seconds = watch.ElapsedSeconds();
      if (!timed.ok()) return JoinFailed(timed.status());
    }
    std::sort(std::begin(seconds), std::end(seconds));
    std::cout << "  " << workers << " workers: " << seconds[1] << " s\n";
  }
  return 0;
}
