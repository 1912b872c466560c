// Ablation study of TSJ's design choices (not a paper figure): measures,
// on one workload, what the dedup strategy and the two approximations
// contribute in candidate/verification counts, peak shuffle-resident
// records and measured wall time: every row runs kRowRuns joins and
// prints their median with the min-max range, since a single join of tens
// of milliseconds swings by tens of percent between runs. Complements
// Figs. 1-5, which report the paper's own parameter sweeps. The filters
// (the Lemma 6 length window, the bag and the histogram filters) and the
// budgeted token-id verification have no switch, so they run in every
// row.
//
// A workers sweep table runs the full configuration at workers=1 and
// workers=hw.
//
// The out-of-core spill row runs the full configuration under a memory
// budget of a quarter of its own in-memory shuffle peak
// (enable_shuffle_spill, mapreduce/spill.h) and prints the spill
// counters, the peak-resident gauge that proves the budget held, the
// bytes on disk per record and per file, and its joins' median user and
// system CPU seconds next to their median wall time.
//
// The fault row runs the full configuration armed with two absorbable
// task-start faults, re-armed before each of the row's joins, and prints
// the lossless retry cost against the full row, whose joins run the same
// fault points disarmed.
//
// Exit status: 1 when a join fails (ExitIfFailed puts its Status on
// stderr), when one of a lossless row's joins differs from the full row's
// (pair, NSLD) set, or when one of an approximation row's joins has a pair
// outside the full row's; 2 on a malformed TSJ_BENCH_SCALE.

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "bench_common.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "eval/table_printer.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

struct AblationRow {
  std::string name;
  TsjOptions options;
  /// A lossless row joins the full row's (pair, NSLD) set; the others are
  /// approximations, which may only drop pairs.
  bool lossless = true;
};

// Joins per row; a row reports their median wall time and min-max range.
constexpr int kRowRuns = 5;

// One row's kRowRuns timed joins: the last join's pairs and counters,
// the wall-time median and range, and the median user and system CPU
// seconds of a join.
struct RowRun {
  std::vector<TsjPair> pairs;
  TsjRunInfo info;
  double ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double user_s = 0;
  double system_s = 0;
};

// User and system CPU seconds this process has used so far.
std::pair<double, double> CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs kRowRuns joins of `options`. `arm` (may be empty) runs before each
// join, outside the timed span; `check` sees each join's pairs. A failed
// join exits 1 (bench::ExitIfFailed).
RowRun TimedRow(const TsjOptions& options, const Corpus& corpus,
                const std::function<void(const std::vector<TsjPair>&)>& check,
                const std::function<void()>& arm = {}) {
  RowRun run;
  std::vector<double> ms, user_s, system_s;
  for (int i = 0; i < kRowRuns; ++i) {
    if (arm) arm();
    const auto [user_before, system_before] = CpuSeconds();
    Stopwatch watch;
    auto result = TokenizedStringJoiner(options).SelfJoin(corpus, &run.info);
    ms.push_back(watch.ElapsedMillis());
    const auto [user_after, system_after] = CpuSeconds();
    user_s.push_back(user_after - user_before);
    system_s.push_back(system_after - system_before);
    bench::ExitIfFailed(result.status());
    check(*result);
    run.pairs = std::move(*result);
  }
  run.ms = Median(ms);
  run.min_ms = *std::min_element(ms.begin(), ms.end());
  run.max_ms = *std::max_element(ms.begin(), ms.end());
  run.user_s = Median(user_s);
  run.system_s = Median(system_s);
  return run;
}

// "median (min-max)" of a row's wall times, in whole milliseconds.
std::string WallCell(const RowRun& run) {
  return TablePrinter::Fmt(run.ms, 0) + " (" +
         TablePrinter::Fmt(run.min_ms, 0) + "-" +
         TablePrinter::Fmt(run.max_ms, 0) + ")";
}

using PairNsldSet = std::set<std::tuple<StringId, StringId, double>>;

PairNsldSet ToPairNsldSet(const std::vector<TsjPair>& pairs) {
  PairNsldSet set;
  for (const TsjPair& p : pairs) set.emplace(p.a, p.b, p.nsld);
  return set;
}

// Exits 1 unless `pairs` is what row `name` may join next to the full
// row's `full` set: the same (pair, NSLD) set when lossless, else a
// subset of its pairs.
void ExitIfInconsistent(const std::string& name,
                        const std::vector<TsjPair>& pairs,
                        const PairNsldSet& full, bool lossless) {
  if (lossless) {
    if (ToPairNsldSet(pairs) == full) return;
    std::cerr << "row '" << name << "': (pair, NSLD) set differs from the "
              << "full row's (" << pairs.size() << " vs " << full.size()
              << " pairs)\n";
    std::exit(1);
  }
  std::set<std::pair<StringId, StringId>> full_pairs;
  for (const auto& [a, b, nsld] : full) full_pairs.emplace(a, b);
  for (const TsjPair& p : pairs) {
    if (full_pairs.count({p.a, p.b}) == 0) {
      std::cerr << "row '" << name << "': pair (" << p.a << ", " << p.b
                << ") is not in the full row's result\n";
      std::exit(1);
    }
  }
}

void Run() {
  bench::PrintHeader("Ablation", "contribution of each TSJ design choice");
  const auto workload =
      GenerateRingWorkload(bench::DefaultWorkload(bench::Scaled(10000)));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "accounts=" << workload.corpus.size()
            << " T=0.1 M=1000 hw=" << hw << "\n\n";

  TsjOptions base;
  base.threshold = 0.1;
  base.max_token_frequency = 1000;

  std::vector<AblationRow> rows;
  {
    TsjOptions o = base;
    o.dedup = DedupStrategy::kGroupOnBothStrings;
    rows.push_back({"group-on-both-strings", o});
  }
  {
    TsjOptions o = base;
    o.aligning = TokenAligning::kGreedy;
    rows.push_back({"greedy-token-aligning", o, /*lossless=*/false});
  }
  {
    TsjOptions o = base;
    o.matching = TokenMatching::kExact;
    rows.push_back({"exact-token-matching", o, /*lossless=*/false});
  }

  TablePrinter table({"configuration", "pairs", "distinct cands", "verified",
                      "verify work", "peak shuffle",
                      "wall ms, median (min-max)"});
  auto add_row = [&table](const std::string& name, const RowRun& run) {
    const TsjRunInfo& info = run.info;
    table.AddRow({name, TablePrinter::Fmt(uint64_t{run.pairs.size()}),
                  TablePrinter::Fmt(info.distinct_candidates),
                  TablePrinter::Fmt(info.verified_candidates),
                  TablePrinter::Fmt(info.verify_work_units),
                  TablePrinter::Fmt(info.peak_shuffle_records),
                  WallCell(run)});
  };
  // The full configuration is the reference every other join is checked
  // against: its first join's (pair, NSLD) set, which its later joins must
  // repeat.
  const std::string full_name = "full (all filters, group-on-one, exact)";
  std::optional<PairNsldSet> reference;
  const RowRun full =
      TimedRow(base, workload.corpus, [&](const std::vector<TsjPair>& pairs) {
        if (!reference) reference = ToPairNsldSet(pairs);
        ExitIfInconsistent(full_name, pairs, *reference, /*lossless=*/true);
      });
  const PairNsldSet& full_set = *reference;
  add_row(full_name, full);
  auto run_row = [&](const std::string& name, const TsjOptions& options,
                     bool lossless, const std::function<void()>& arm = {}) {
    RowRun run = TimedRow(
        options, workload.corpus,
        [&](const std::vector<TsjPair>& pairs) {
          ExitIfInconsistent(name, pairs, full_set, lossless);
        },
        arm);
    add_row(name, run);
    return run;
  };
  for (const auto& row : rows) run_row(row.name, row.options, row.lossless);

  // ---- Out-of-core spill row: the full configuration under a memory
  // budget of a quarter of its own in-memory shuffle peak, so several
  // spill/merge cycles actually happen on the bench workload. Same
  // pairs/NSLD by construction; the row shows what bounding residency
  // costs in wall time, and the gauge proves the budget held.
  RowRun spill_run;
  uint64_t spill_budget = 0;
  if (full.info.peak_shuffle_records > 0) {
    spill_budget = std::max<uint64_t>(1024, full.info.peak_shuffle_records / 4);
    TsjOptions o = base;
    o.enable_shuffle_spill = true;
    o.mapreduce.memory_budget_records = static_cast<size_t>(spill_budget);
    spill_run = run_row("+ shuffle spill (budget = peak/4)", o,
                        /*lossless=*/true);
  }

  // ---- Fault row: the full configuration armed with two absorbable
  // start faults: one map task and one reduce task each fail once and
  // re-execute. A "once" spec fires once per Configure, so it is re-armed
  // before each join and every join absorbs both. Byte-identical pairs by
  // the retry contract; the wall column shows the re-execution cost.
  const RowRun absorbed_run =
      run_row("+ fault injection (2 absorbed faults)", base,
              /*lossless=*/true, [] {
                FaultInjector::Global().Configure(
                    "task.map=once;task.reduce=once");
              });
  FaultInjector::Global().ConfigureFromEnv();

  table.Print(std::cout);
  std::cout << "\n";
  const PipelineStats& absorbed = absorbed_run.info.pipeline;
  std::cout << "fault absorption: " << absorbed.total_task_failures()
            << " injected task failures, " << absorbed.total_task_retries()
            << " lossless re-executions, " << absorbed.total_tasks_cancelled()
            << " cancellations in the last join; median wall "
            << absorbed_run.ms << " ms vs " << full.ms
            << " ms fault-free (full row)\n";
  const PipelineStats& spill = spill_run.info.pipeline;
  const bool budget_honored = spill.max_peak_resident_records() <=
                              spill_budget + spill_budget / 8;
  if (spill_budget > 0) {
    std::cout << "\nout-of-core spill (budget "
              << spill_budget << " records = in-memory peak/4): "
              << spill.total_spilled_records() << " records spilled across "
              << spill.total_spill_files() << " run files, "
              << spill.total_merge_passes() << " merge passes; "
              << "peak resident " << spill.max_peak_resident_records()
              << " records (budget honored: "
              << (budget_honored ? "yes" : "NO") << ")\n";
    if (spill.total_spill_bytes() > 0) {
      const double bytes = static_cast<double>(spill.total_spill_bytes());
      std::cout << "spill v3 format: " << spill.total_spill_bytes()
                << " bytes on disk ("
                << TablePrinter::Fmt(
                       bytes / static_cast<double>(
                                   spill.total_spilled_records()),
                       1)
                << " per record, "
                << spill.total_spill_bytes() / spill.total_spill_files()
                << " per file), " << spill.total_checksum_failures()
                << " checksum failures; per join, median "
                << TablePrinter::Fmt(spill_run.ms, 0) << " ms wall, "
                << TablePrinter::Fmt(spill_run.user_s, 3) << " s user, "
                << TablePrinter::Fmt(spill_run.system_s, 3)
                << " s system\n";
    }
  }
  std::cout << "\nexpectations: every row but the two approximations joins "
               "the full row's pairs with the same NSLD values, and the "
               "approximations only shrink the result (checked: the "
               "harness exits 1 otherwise).\n";

  // ---- Workers sweep: the full configuration at 1 and hw workers. -------
  std::cout << "\n";
  TablePrinter sweep_table(
      {"workers", "peak shuffle", "wall ms, median (min-max)"});
  std::vector<size_t> worker_counts = {1};
  if (hw > 1) worker_counts.push_back(hw);
  for (const size_t workers : worker_counts) {
    TsjOptions o = base;
    o.mapreduce.num_workers = workers;
    const std::string name =
        "full at " + std::to_string(workers) + " workers";
    const RowRun run =
        TimedRow(o, workload.corpus, [&](const std::vector<TsjPair>& pairs) {
          ExitIfInconsistent(name, pairs, full_set, /*lossless=*/true);
        });
    sweep_table.AddRow({TablePrinter::Fmt(uint64_t{workers}),
                        TablePrinter::Fmt(run.info.peak_shuffle_records),
                        WallCell(run)});
  }
  std::cout << "workers sweep (full configuration):\n";
  sweep_table.Print(std::cout);
}

}  // namespace
}  // namespace tsj

int main() {
  tsj::Run();
  return 0;
}
