// Fig. 2 — "Comparing the runtime of TSJ while varying NSLD and the token
// matching and aligning algorithms."
//
// The paper sweeps T from 0.025 to 0.225 and compares fuzzy-token-matching
// (exact Hungarian verification + MassJoin candidates), greedy-token-
// aligning (mean saving 13%, growing with T) and exact-token-matching
// (mean saving 60%, runtime nearly flat in T). This harness times each
// configuration at the default worker count and reports its verify work
// units beside the time (bench::MatchingSweep).

#include <iostream>

#include "bench_common.h"
#include "eval/table_printer.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

void Run() {
  bench::PrintHeader("Fig. 2", "TSJ runtime vs. NSLD threshold T");
  bench::PrintHost();
  const auto workload =
      GenerateRingWorkload(bench::DefaultWorkload(bench::Scaled(20000)));
  TsjOptions options;
  options.max_token_frequency = 1000;
  std::cout << "accounts=" << workload.corpus.size()
            << " M=" << options.max_token_frequency
            << " workers=" << options.mapreduce.effective_workers() << "\n\n";

  bench::MatchingSweep sweep("T");
  for (double t = 0.025; t <= 0.2251; t += 0.025) {
    options.threshold = t;
    sweep.AddRow(workload.corpus, TablePrinter::Fmt(t, 3), options);
  }
  sweep.Print("13%", "60%");
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
