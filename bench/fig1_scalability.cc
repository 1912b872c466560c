// Fig. 1 — "Comparing the runtime of Tokenized-String Joiner (TSJ) while
// varying the MapReduce machines and the Deduping algorithm."
//
// The paper runs TSJ on 44.4M names on 100..1,000 machines with both dedup
// strategies; both scale well (speedup 3.8x for 10x machines) and
// grouping-on-one-string is consistently 13-32% faster. Sec. V-A explains
// the win by its far smaller number of reduce groups. This harness times
// the full TSJ pipeline per strategy at 1, 2 and 4 workers on one host,
// and prints each strategy's dedup/verify group count and shuffle volume.

#include <iostream>

#include "bench_common.h"
#include "eval/table_printer.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

void PrintVerifyJob(const char* strategy, const TsjRunInfo& info) {
  const JobStats& verify = info.pipeline.jobs.back();
  std::cout << "  " << strategy << ": " << verify.num_groups << " groups, "
            << verify.shuffle_records << " shuffle records\n";
}

void Run() {
  bench::PrintHeader("Fig. 1", "TSJ runtime vs. workers x dedup strategy");
  bench::PrintHost();
  const auto workload =
      GenerateRingWorkload(bench::DefaultWorkload(bench::Scaled(80000)));
  // M is scaled with the corpus: the paper's M = 1,000 at 44.4M accounts
  // bounds the heaviest token group to a vanishing fraction of the total
  // work; at tens of thousands of accounts the equivalent bound is a few
  // hundred.
  const uint32_t max_frequency = 500;
  std::cout << "accounts=" << workload.corpus.size()
            << " distinct-tokens=" << workload.corpus.num_distinct_tokens()
            << " T=0.1 M=" << max_frequency << "\n\n";

  TsjOptions base;
  base.threshold = 0.1;
  base.max_token_frequency = max_frequency;

  TablePrinter table({"workers", "group-on-one (s)", "group-on-both (s)",
                      "one-string advantage"});
  TsjRunInfo info_one, info_both;
  std::vector<TsjPair> pairs_one, pairs_both;
  double one_first = 0, one_last = 0;
  for (size_t workers : bench::kWorkerCounts) {
    TsjOptions one = base;
    one.dedup = DedupStrategy::kGroupOnOneString;
    one.mapreduce.num_workers = workers;
    TsjOptions both = one;
    both.dedup = DedupStrategy::kGroupOnBothStrings;
    const double t_one = bench::MedianSelfJoinSeconds(
        TokenizedStringJoiner(one), workload.corpus, &info_one, &pairs_one);
    const double t_both = bench::MedianSelfJoinSeconds(
        TokenizedStringJoiner(both), workload.corpus, &info_both, &pairs_both);
    if (workers == bench::kWorkerCounts.front()) one_first = t_one;
    one_last = t_one;
    table.AddRow({TablePrinter::Fmt(uint64_t{workers}),
                  TablePrinter::Fmt(t_one, 4), TablePrinter::Fmt(t_both, 4),
                  TablePrinter::Fmt(bench::SavingPercent(t_both, t_one), 1) +
                      "%"});
  }
  std::cout << "result pairs: " << pairs_one.size()
            << " (strategies agree: "
            << (pairs_one.size() == pairs_both.size() ? "yes" : "NO")
            << ")\n";
  std::cout << "dedup/verify job:\n";
  PrintVerifyJob("group-on-one ", info_one);
  PrintVerifyJob("group-on-both", info_both);
  std::cout << "\n";
  table.Print(std::cout);
  std::cout << "\nspeedup of group-on-one from "
            << bench::kWorkerCounts.front() << " to "
            << bench::kWorkerCounts.back() << " workers: "
            << TablePrinter::Fmt(one_first / one_last, 2) << "x\n";
  std::cout << "paper (100 -> 1,000 machines, 44.4M names): 3.8x speedup; "
               "group-on-one 13-32% faster\n";
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
