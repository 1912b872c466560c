// Shared setup for the figure-reproduction harnesses: the default account
// workload (a scaled-down stand-in for the paper's 44.4M Google-account
// names, which are not public: synthetic names with planted fraud rings,
// workload/ring_workload.h), the cluster-model calibration used to
// simulate 100-1,000-machine runs, and small formatting helpers.
//
// Scale: every harness multiplies its default workload size by the
// TSJ_BENCH_SCALE environment variable (default 1.0), so
// `TSJ_BENCH_SCALE=10 ./fig1_scalability` runs a 10x larger experiment.

#ifndef TSJ_BENCH_BENCH_COMMON_H_
#define TSJ_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <string>

#include "mapreduce/cluster_model.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace bench {

/// Multiplier from the TSJ_BENCH_SCALE environment variable.
inline double Scale() {
  const char* env = std::getenv("TSJ_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0 ? value : 1.0;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

/// The default account-name workload: Zipf token popularity, 1-4 tokens
/// per name, ~6% of accounts in adversarial rings.
inline RingWorkloadOptions DefaultWorkload(size_t num_accounts) {
  RingWorkloadOptions options;
  options.num_accounts = num_accounts;
  options.num_rings = num_accounts / 150;
  options.min_ring_size = 3;
  options.max_ring_size = 8;
  options.names.vocabulary_size = std::max<size_t>(500, num_accounts / 5);
  options.names.zipf_skew = 0.9;
  options.names.min_tokens = 1;
  options.names.max_tokens = 4;
  options.names.min_syllables = 1;
  options.names.max_syllables = 4;
  options.seed = 20190321;
  return options;
}

/// Cluster-model calibration shared by all machine-sweep harnesses.
inline ClusterModelParams DefaultClusterParams() {
  return ClusterModelParams{};
}

inline void PrintHeader(const std::string& figure,
                        const std::string& description) {
  std::cout << "\n=== " << figure << " — " << description << " ===\n";
  std::cout << "(workload scale factor TSJ_BENCH_SCALE=" << Scale() << ")\n\n";
}

}  // namespace bench
}  // namespace tsj

#endif  // TSJ_BENCH_BENCH_COMMON_H_
