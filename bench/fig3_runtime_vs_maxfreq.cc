// Fig. 3 — "Comparing the runtime of TSJ while varying max-frequency (M)
// and the token matching and aligning algorithms."
//
// The paper sweeps M from 100 to 1,000 at T = 0.1; greedy-token-aligning
// saves ~9% over fuzzy-token-matching and exact-token-matching ~33%, with
// savings fairly stable across M. This harness times each configuration
// at the default worker count and reports its verify work units beside
// the time (bench::MatchingSweep).

#include <iostream>

#include "bench_common.h"
#include "eval/table_printer.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

void Run() {
  bench::PrintHeader("Fig. 3", "TSJ runtime vs. max token frequency M");
  bench::PrintHost();
  const auto workload =
      GenerateRingWorkload(bench::DefaultWorkload(bench::Scaled(20000)));
  TsjOptions options;
  options.threshold = 0.1;
  std::cout << "accounts=" << workload.corpus.size()
            << " T=" << options.threshold
            << " workers=" << options.mapreduce.effective_workers() << "\n\n";

  bench::MatchingSweep sweep("M");
  for (uint32_t m = 100; m <= 1000; m += 100) {
    options.max_token_frequency = m;
    sweep.AddRow(workload.corpus, TablePrinter::Fmt(uint64_t{m}), options);
  }
  sweep.Print("9%", "33%");
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
