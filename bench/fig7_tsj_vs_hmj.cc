// Fig. 7 — "Comparing the runtime of Tokenized-String Joiner (TSJ) and the
// Hybrid Metric Joiner (HMJ) while varying the MapReduce machines."
//
// The paper runs both joiners on 100..1,000 machines: HMJ does not finish
// in reasonable time on 100 machines (DNF) and TSJ is 12-15x faster on all
// other configurations. The structural reason (Sec. V-E): tokenized strings
// form dense clusters in the metric space, NSLD values concentrate, so
// HMJ's Voronoi window filter replicates records into most partitions and
// the per-partition joins balloon — while TSJ works in the token domain.
//
// This harness times both joiners on the same workload at 1, 2 and 4
// workers on one host. HMJ gets a distance-computation budget
// (HmjOptions::work_limit): a run that exceeds it reports
// HmjRunInfo::completed = false and is printed as DNF, as in the paper
// (an un-budgeted HMJ run at 8,000 accounts burned hours of CPU without
// terminating).

#include <iostream>

#include "bench_common.h"
#include "eval/join_metrics.h"
#include "eval/table_printer.h"
#include "hmj/hmj.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

void Run() {
  bench::PrintHeader("Fig. 7", "TSJ vs. HMJ runtime vs. workers");
  bench::PrintHost();
  // Smaller corpus than Figs. 1-5: HMJ's cost is what limits the scale —
  // which is the figure's entire point. Full multi-token names (2-4 tokens
  // of 2-4 syllables) spread the NSLD distances to pivots, giving HMJ's
  // window filter the selectivity it has on the paper's real names; with
  // short single-token names the filter degenerates entirely and HMJ never
  // beats DNF.
  auto workload_options = bench::DefaultWorkload(bench::Scaled(1000));
  workload_options.names.min_tokens = 2;
  workload_options.names.min_syllables = 2;
  const auto workload = GenerateRingWorkload(workload_options);
  std::cout << "accounts=" << workload.corpus.size() << " T=0.1\n\n";

  TsjOptions tsj_options;
  tsj_options.threshold = 0.1;
  tsj_options.max_token_frequency = 1000;

  HmjOptions hmj_options;
  hmj_options.threshold = 0.1;
  hmj_options.num_partitions = 64;
  hmj_options.max_partition_size = 512;
  // Budget: ~200x the full quadratic join. A run needing more has lost to
  // brute force outright and is reported as DNF, as in the paper.
  hmj_options.work_limit =
      200ull * workload.corpus.size() * workload.corpus.size() / 2;

  TablePrinter table({"workers", "TSJ (s)", "HMJ (s)", "HMJ/TSJ"});
  TsjRunInfo tsj_info;
  HmjRunInfo hmj_info;
  std::vector<TsjPair> tsj_pairs, hmj_pairs;
  for (size_t workers : bench::kWorkerCounts) {
    tsj_options.mapreduce.num_workers = workers;
    hmj_options.mapreduce.num_workers = workers;
    const double t_tsj = bench::MedianSelfJoinSeconds(
        TokenizedStringJoiner(tsj_options), workload.corpus, &tsj_info,
        &tsj_pairs);
    const double t_hmj = bench::MedianSelfJoinSeconds(
        HybridMetricJoiner(hmj_options), workload.corpus, &hmj_info,
        &hmj_pairs);
    const bool dnf = !hmj_info.completed;
    table.AddRow({TablePrinter::Fmt(uint64_t{workers}),
                  TablePrinter::Fmt(t_tsj, 4),
                  dnf ? "DNF" : TablePrinter::Fmt(t_hmj, 4),
                  dnf ? "-" : TablePrinter::Fmt(t_hmj / t_tsj, 1) + "x"});
  }

  std::cout << "TSJ pairs=" << tsj_pairs.size()
            << "  HMJ pairs=" << hmj_pairs.size()
            << (hmj_info.completed ? "" : "  [HMJ exceeded work budget]");
  if (hmj_info.completed) {
    const auto agreement = ComparePairSets(tsj_pairs, hmj_pairs);
    std::cout << "  (agreement recall="
              << TablePrinter::Fmt(agreement.recall, 4)
              << " precision=" << TablePrinter::Fmt(agreement.precision, 4)
              << ")";
  }
  std::cout << "\nTSJ verifications=" << tsj_info.verified_candidates
            << "  HMJ NSLD evaluations=" << hmj_info.distance_computations
            << "  (ratio "
            << TablePrinter::Fmt(
                   static_cast<double>(hmj_info.distance_computations) /
                       static_cast<double>(
                           std::max<uint64_t>(1,
                                              tsj_info.verified_candidates)),
                   1)
            << "x)\n\n";
  table.Print(std::cout);
  std::cout << "\npaper (100 -> 1,000 machines): HMJ DNF at 100 machines; "
               "TSJ 12-15x faster elsewhere\n";
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
