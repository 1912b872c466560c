// Scaling playground: run the full TSJ pipeline on a synthetic corpus and
// replay it through the simulated-cluster model at any machine count —
// the tooling behind the paper's Figs. 1-3 sweeps, exposed interactively.
//
// Run: ./build/examples/scaling_playground [accounts] [threshold] [machines]

#include <cstdlib>
#include <iostream>

#include "mapreduce/cluster_model.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

int main(int argc, char** argv) {
  const size_t accounts =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;
  const double threshold = argc > 2 ? std::atof(argv[2]) : 0.1;
  const uint64_t machines =
      argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 500;

  tsj::RingWorkloadOptions workload_options;
  workload_options.num_accounts = accounts;
  workload_options.names.vocabulary_size = accounts / 5;
  const auto workload = tsj::GenerateRingWorkload(workload_options);

  tsj::TsjOptions options;
  options.threshold = threshold;
  tsj::TsjRunInfo info;
  const auto pairs =
      tsj::TokenizedStringJoiner(options).SelfJoin(workload.corpus, &info);
  if (!pairs.ok()) {
    std::cerr << "join failed: " << pairs.status().ToString() << "\n";
    return 1;
  }

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
  std::cout << "  local wall time:        "
            << info.pipeline.total_wall_seconds() << " s\n\n";

  std::cout << "per-job pipeline breakdown:\n";
  for (const auto& job : info.pipeline.jobs) {
    std::cout << "  " << job.name << ": input=" << job.input_records
              << " map-out=" << job.map_output_records
              << " groups=" << job.num_groups
              << " out=" << job.reduce_output_records << "\n";
  }

  const tsj::ClusterModelParams params;
  std::cout << "\nsimulated cluster wall time:\n";
  for (uint64_t w : {machines / 4, machines, machines * 4}) {
    if (w == 0) continue;
    std::cout << "  " << w << " machines: "
              << tsj::SimulatePipelineSeconds(info.pipeline, w, params)
              << " s\n";
  }
  return 0;
}
