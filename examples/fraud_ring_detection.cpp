// Fraud-ring detection, the paper's motivating application (Sec. I-A):
// an attacker reuses one bank-account holder under slightly edited names
// across many publisher accounts. The pipeline is:
//
//   1. generate an account population with planted adversarial rings;
//   2. TSJ self-join on the account-holder names (NSLD <= T);
//   3. build the similarity graph and cluster it (connected components);
//   4. flag clusters as suspected rings and score them against the planted
//      ground truth.
//
// Run: ./build/examples/fraud_ring_detection [num_accounts]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>

#include "graph/similarity_graph.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

int main(int argc, char** argv) {
  const size_t num_accounts =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;

  // ---- 1. Account population with planted rings. -------------------------
  tsj::RingWorkloadOptions workload_options;
  workload_options.num_accounts = num_accounts;
  workload_options.num_rings = num_accounts / 400;
  workload_options.min_ring_size = 3;
  workload_options.max_ring_size = 8;
  workload_options.names.min_tokens = 2;       // full names
  workload_options.names.min_syllables = 2;    // realistic token lengths
  workload_options.perturb.min_char_edits = 1;
  workload_options.perturb.max_char_edits = 2;
  const tsj::RingWorkload workload =
      tsj::GenerateRingWorkload(workload_options);
  std::cout << "accounts: " << workload.corpus.size() << ", planted rings: "
            << workload.rings.size() << "\n";

  // ---- 2. TSJ self-join. --------------------------------------------------
  tsj::TsjOptions options;
  options.threshold = 0.2;
  options.max_token_frequency = 1000;
  // Production recommendation from Sec. V-C: greedy-token-aligning loses
  // almost no recall and is cheaper.
  options.aligning = tsj::TokenAligning::kGreedy;
  tsj::TsjRunInfo info;
  const auto pairs =
      tsj::TokenizedStringJoiner(options).SelfJoin(workload.corpus, &info);
  if (!pairs.ok()) {
    std::cerr << "join failed: " << pairs.status().ToString() << "\n";
    return 1;
  }
  // The join generates and verifies each distinct name once, so the
  // candidate and filter counts are pairs of distinct names; the similar
  // pairs count every pair of accounts.
  std::cout << "similar pairs: " << pairs->size() << " ("
            << info.duplicate_strings << " accounts repeat an earlier name)\n"
            << "distinct-name pairs skipped before dedup: "
            << info.length_filtered << " by length, " << info.bag_filtered
            << " by character bag; distinct candidates: "
            << info.distinct_candidates
            << ", histogram-filtered: " << info.histogram_filtered
            << ", verified: " << info.verified_candidates << "\n";

  // ---- 3. Similarity graph -> clusters. ----------------------------------
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(pairs->size());
  for (const tsj::TsjPair& p : *pairs) edges.emplace_back(p.a, p.b);
  const auto clusters =
      tsj::ClusterBySimilarity(workload.corpus.size(), edges,
                               /*min_cluster_size=*/3);
  std::cout << "suspicious clusters (>= 3 accounts): " << clusters.size()
            << "\n";

  // ---- 4. Score against the planted ground truth. ------------------------
  size_t recovered = 0;
  for (const auto& ring : workload.rings) {
    for (const auto& cluster : clusters) {
      size_t hit = 0;
      for (uint32_t member : ring) {
        if (std::binary_search(cluster.begin(), cluster.end(), member)) {
          ++hit;
        }
      }
      if (hit >= ring.size() - 1 && hit >= 2) {  // ring essentially covered
        ++recovered;
        break;
      }
    }
  }
  std::cout << "rings recovered: " << recovered << " / "
            << workload.rings.size() << "\n";

  // Show the largest suspected ring with its account names.
  if (!clusters.empty()) {
    std::cout << "\nlargest suspected ring:\n";
    for (uint32_t account : clusters.front()) {
      std::cout << "  account " << account << ": ";
      for (const auto& token : workload.names[account]) {
        std::cout << token << " ";
      }
      std::cout << (workload.ring_of[account] >= 0 ? " [planted]" : "")
                << "\n";
    }
  }
  return 0;
}
