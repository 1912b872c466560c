// Fig. 1 — "Comparing the runtime of Tokenized-String Joiner (TSJ) while
// varying the MapReduce machines and the Deduping algorithm."
//
// The paper runs TSJ on 44.4M names on 100..1,000 machines with both dedup
// strategies; both scale well (speedup 3.8x for 10x machines) and
// grouping-on-one-string is consistently 13-32% faster. This harness runs
// the full TSJ pipeline once per strategy on the synthetic workload,
// replays the recorded per-group loads through the simulated-cluster model
// at each machine count, and prints the same two series.

#include <iostream>

#include "bench_common.h"
#include "eval/table_printer.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

void Run() {
  bench::PrintHeader("Fig. 1",
                     "TSJ runtime vs. machines x dedup strategy");
  const auto workload =
      GenerateRingWorkload(bench::DefaultWorkload(bench::Scaled(80000)));
  // M is scaled with the corpus: the paper's M = 1,000 at 44.4M accounts
  // bounds the heaviest token group to a vanishing fraction of the total
  // work; at tens of thousands of accounts the equivalent "vanishing
  // fraction" bound is a few hundred (see EXPERIMENTS.md).
  const uint32_t max_frequency = 500;
  std::cout << "accounts=" << workload.corpus.size()
            << " distinct-tokens=" << workload.corpus.num_distinct_tokens()
            << " T=0.1 M=" << max_frequency << "\n\n";

  TsjOptions base;
  base.threshold = 0.1;
  base.max_token_frequency = max_frequency;

  TsjOptions one = base;
  one.dedup = DedupStrategy::kGroupOnOneString;
  TsjOptions both = base;
  both.dedup = DedupStrategy::kGroupOnBothStrings;

  TsjRunInfo info_one, info_both;
  const auto result_one =
      TokenizedStringJoiner(one).SelfJoin(workload.corpus, &info_one);
  const auto result_both =
      TokenizedStringJoiner(both).SelfJoin(workload.corpus, &info_both);
  if (!result_one.ok() || !result_both.ok()) {
    std::cerr << "join failed\n";
    return;
  }
  std::cout << "result pairs: " << result_one->size()
            << " (strategies agree: "
            << (result_one->size() == result_both->size() ? "yes" : "NO")
            << ")\n";
  std::cout << "shuffle records: "
            << info_one.pipeline.total_shuffle_records()
            << "  peak resident: " << info_one.peak_shuffle_records
            << " (group-on-one)\n\n";

  const auto params = bench::DefaultClusterParams();
  TablePrinter table({"machines", "group-on-one (s)", "group-on-both (s)",
                      "one-string advantage"});
  double one_100 = 0, one_1000 = 0;
  for (uint64_t machines = 100; machines <= 1000; machines += 100) {
    const double t_one =
        SimulatePipelineSeconds(info_one.pipeline, machines, params);
    const double t_both =
        SimulatePipelineSeconds(info_both.pipeline, machines, params);
    if (machines == 100) one_100 = t_one;
    if (machines == 1000) one_1000 = t_one;
    table.AddRow({TablePrinter::Fmt(machines), TablePrinter::Fmt(t_one, 1),
                  TablePrinter::Fmt(t_both, 1),
                  TablePrinter::Fmt(100.0 * (t_both - t_one) / t_both, 1) +
                      "%"});
  }
  table.Print(std::cout);
  std::cout << "\nspeedup of group-on-one at 10x machines: "
            << TablePrinter::Fmt(one_100 / one_1000, 2)
            << "x   (paper: 3.8x; both strategies scale out)\n";
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
