// Ablation study of TSJ's design choices (not a paper figure): measures,
// on one workload, what the dedup strategy, the two approximations and the
// verification cache tiers (shared token-pair cache, per-worker L1 tier)
// contribute in candidate/verification counts, per-tier cache hit rates,
// peak shuffle-resident records and measured wall time: every row runs
// kRowRuns joins and prints their median with the min-max range, since a
// single join of tens of milliseconds swings by tens of percent between
// runs. Complements Figs. 1-5, which report the paper's own parameter
// sweeps. The filters (the Lemma 6 length window, the bag and the
// histogram filters) and the budgeted token-id verification have no
// switch, so they run in every row.
//
// A --workers sweep table shows the contention story directly: the same
// full configuration at workers=1 vs workers=hw, with the L1/shared
// hit split and flush-batch counts that explain where the multi-thread
// win comes from.
//
// With --shuffle_json <path>, additionally writes the shuffle counters
// (map output records, pipeline peak shuffle-resident records) plus the
// cache-tier counters of the workers=hw run as JSON, which CI merges into
// BENCH_verify.json so the memory and contention wins are tracked in the
// perf trajectory.
//
// The out-of-core spill row runs the full configuration under a memory
// budget of a quarter of its own in-memory shuffle peak
// (enable_shuffle_spill, mapreduce/spill.h) and prints the spill
// counters plus the peak-resident gauge that proves the budget held;
// --spill_json <path> emits them as JSON (merged into BENCH_verify.json
// by CI alongside the shuffle counters).
//
// The fault-framework rows run the full configuration with the fault
// injector explicitly disarmed (the disabled FAULT_POINT cost is one
// relaxed atomic load per site; the harness prints the median difference
// to the 'full' row) and armed with two absorbable task-start faults,
// re-armed before each of the row's joins (showing the lossless retry
// cost). --fault_json <path> emits the overhead and absorption counters
// as JSON (merged into BENCH_verify.json by CI); every *wall_ms field
// there holds a median.
//
// Exit status: 1 when a join fails (ExitIfFailed puts its Status on
// stderr), when one of a lossless row's joins differs from the full row's
// (pair, NSLD) set, or when one of an approximation row's joins has a pair
// outside the full row's; 2 on a malformed TSJ_BENCH_SCALE.

#include <algorithm>
#include <cstdlib>
#include <fstream>
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

// One row's kRowRuns timed joins: the last join's pairs and counters and
// the wall-time median and range.
struct RowRun {
  std::vector<TsjPair> pairs;
  TsjRunInfo info;
  double ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

// Runs kRowRuns joins of `options`. `arm` (may be empty) runs before each
// join, outside the timed span; `check` sees each join's pairs. A failed
// join exits 1 (bench::ExitIfFailed).
RowRun TimedRow(const TsjOptions& options, const Corpus& corpus,
                const std::function<void(const std::vector<TsjPair>&)>& check,
                const std::function<void()>& arm = {}) {
  RowRun run;
  std::vector<double> ms;
  for (int i = 0; i < kRowRuns; ++i) {
    if (arm) arm();
    Stopwatch watch;
    auto result = TokenizedStringJoiner(options).SelfJoin(corpus, &run.info);
    ms.push_back(watch.ElapsedMillis());
    bench::ExitIfFailed(result.status());
    check(*result);
    run.pairs = std::move(*result);
  }
  std::sort(ms.begin(), ms.end());
  run.ms = ms[ms.size() / 2];
  run.min_ms = ms.front();
  run.max_ms = ms.back();
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

// The counters one sweep run contributes to the JSON trajectory.
struct SweepNumbers {
  size_t workers = 0;
  TsjRunInfo info;
  double wall_ms = 0;
};

std::string PercentOrDash(uint64_t part, uint64_t whole) {
  if (whole == 0) return "-";
  return TablePrinter::Fmt(
      100.0 * static_cast<double>(part) / static_cast<double>(whole), 1);
}

void Run(const std::string& shuffle_json_path,
         const std::string& spill_json_path,
         const std::string& fault_json_path) {
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
  {
    // Cache-only ablation: cross-candidate token-pair memoization dropped.
    TsjOptions o = base;
    o.enable_token_pair_cache = false;
    rows.push_back({"- token pair cache", o});
  }
  {
    // L1-tier ablation: shared shards kept, the per-worker front dropped
    // — every gated probe pays the spinlocked shard round-trip again.
    TsjOptions o = base;
    o.enable_l1_verify_cache = false;
    rows.push_back({"- L1 verify cache (shared shards only)", o});
  }

  TablePrinter table({"configuration", "pairs", "distinct cands", "verified",
                      "verify work", "L1 hit%", "shared hit%", "flushes",
                      "peak shuffle", "wall ms, median (min-max)"});
  auto add_row = [&table](const std::string& name, const RowRun& run) {
    const TsjRunInfo& info = run.info;
    const uint64_t l1_probes =
        info.token_pair_cache_l1_hits + info.token_pair_cache_l1_misses;
    const uint64_t shared_probes =
        info.token_pair_cache_hits + info.token_pair_cache_misses;
    table.AddRow({name, TablePrinter::Fmt(uint64_t{run.pairs.size()}),
                  TablePrinter::Fmt(info.distinct_candidates),
                  TablePrinter::Fmt(info.verified_candidates),
                  TablePrinter::Fmt(info.verify_work_units),
                  PercentOrDash(info.token_pair_cache_l1_hits, l1_probes),
                  PercentOrDash(info.token_pair_cache_hits, shared_probes),
                  info.token_pair_cache_flush_batches == 0
                      ? std::string("-")
                      : TablePrinter::Fmt(info.token_pair_cache_flush_batches),
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

  // ---- Fault-framework rows: the full configuration with the injector
  // explicitly disarmed (the production state — every FAULT_POINT is one
  // relaxed atomic load), and armed with two absorbable start faults to
  // show what a retry actually costs when it happens.
  FaultInjector::Global().Configure("");  // explicit: disarmed
  const RowRun disabled =
      run_row("+ fault framework (disabled)", base, /*lossless=*/true);
  // Two absorbable start faults: one map task and one reduce task each
  // fail once and re-execute. A "once" spec fires once per Configure, so
  // it is re-armed before each join and every join absorbs both.
  // Byte-identical pairs by the retry contract; the wall column shows the
  // re-execution cost.
  const RowRun absorbed_run =
      run_row("+ fault injection (2 absorbed faults)", base,
              /*lossless=*/true, [] {
                FaultInjector::Global().Configure(
                    "task.map=once;task.reduce=once");
              });
  FaultInjector::Global().ConfigureFromEnv();

  table.Print(std::cout);
  if (full.ms > 0) {
    std::cout << "\nfault framework disarmed overhead: median " << full.ms
              << " ms (no framework row) vs " << disabled.ms
              << " ms (disarmed injector): "
              << 100.0 * (disabled.ms - full.ms) / full.ms
              << "% (medians of " << kRowRuns
              << " joins; FAULT_POINT is one relaxed atomic load when "
                 "disarmed)\n";
  }
  const PipelineStats& absorbed = absorbed_run.info.pipeline;
  std::cout << "fault absorption: " << absorbed.total_task_failures()
            << " injected task failures, " << absorbed.total_task_retries()
            << " lossless re-executions, " << absorbed.total_tasks_cancelled()
            << " cancellations in the last join; median wall "
            << absorbed_run.ms << " ms vs " << disabled.ms
            << " ms fault-free\n";
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
      std::cout << "spill v2 format: "
                << spill.total_spill_raw_bytes() << " raw record bytes -> "
                << spill.total_spill_bytes() << " bytes on disk ("
                << static_cast<double>(spill.total_spill_raw_bytes()) /
                       static_cast<double>(spill.total_spill_bytes())
                << "x compression), "
                << spill.total_spill_bytes() / spill.total_spill_files()
                << " bytes per file, " << spill.total_checksum_failures()
                << " checksum failures\n";
    }
  }
  std::cout << "\nexpectations: every row but the two approximations joins "
               "the full row's pairs with the same NSLD values, and the "
               "approximations only shrink the result (checked: the "
               "harness exits 1 otherwise); disabling either cache tier "
               "changes only the work/traffic/wall columns.\n";

  // ---- Workers sweep: the contention picture in one table. ---------------
  std::cout << "\n";
  TablePrinter sweep_table({"configuration", "workers", "L1 hit%",
                            "shared hit%", "flushes", "peak shuffle",
                            "wall ms, median (min-max)"});
  std::vector<SweepNumbers> sweep;
  std::vector<size_t> worker_counts = {1};
  if (hw > 1) worker_counts.push_back(hw);
  for (const size_t workers : worker_counts) {
    for (const bool l1 : {true, false}) {
      TsjOptions o = base;
      o.mapreduce.num_workers = workers;
      o.enable_l1_verify_cache = l1;
      const std::string name =
          l1 ? "full (L1 + batched flush)" : "shared shards only";
      const RowRun run =
          TimedRow(o, workload.corpus, [&](const std::vector<TsjPair>& pairs) {
            ExitIfInconsistent(
                name + " at " + std::to_string(workers) + " workers", pairs,
                full_set, /*lossless=*/true);
          });
      const TsjRunInfo& info = run.info;
      const uint64_t l1_probes =
          info.token_pair_cache_l1_hits + info.token_pair_cache_l1_misses;
      const uint64_t shared_probes =
          info.token_pair_cache_hits + info.token_pair_cache_misses;
      sweep_table.AddRow(
          {name, TablePrinter::Fmt(uint64_t{workers}),
           PercentOrDash(info.token_pair_cache_l1_hits, l1_probes),
           PercentOrDash(info.token_pair_cache_hits, shared_probes),
           info.token_pair_cache_flush_batches == 0
               ? std::string("-")
               : TablePrinter::Fmt(info.token_pair_cache_flush_batches),
           TablePrinter::Fmt(info.peak_shuffle_records), WallCell(run)});
      if (l1) sweep.push_back(SweepNumbers{workers, info, run.ms});
    }
  }
  std::cout << "workers sweep (full configuration vs shared-shards-only "
               "cache):\n";
  sweep_table.Print(std::cout);

  if (!shuffle_json_path.empty()) {
    const TsjRunInfo& info = full.info;
    std::ofstream json(shuffle_json_path);
    json << "{\n"
         << "  \"workload\": {\"accounts\": " << workload.corpus.size()
         << ", \"threshold\": " << base.threshold
         << ", \"max_token_frequency\": " << base.max_token_frequency
         << ", \"hardware_workers\": " << hw << "},\n"
         << "  \"streaming\": {\"map_output_records\": "
         << info.pipeline.total_map_output_records()
         << ", \"peak_shuffle_records\": " << info.peak_shuffle_records
         << ", \"wall_ms\": " << full.ms << "},\n"
         << "  \"cache_tiers\": {\"l1_hits\": "
         << info.token_pair_cache_l1_hits
         << ", \"l1_misses\": " << info.token_pair_cache_l1_misses
         << ", \"shared_hits\": " << info.token_pair_cache_hits
         << ", \"shared_misses\": " << info.token_pair_cache_misses
         << ", \"flush_batches\": " << info.token_pair_cache_flush_batches
         << ", \"flushed_records\": "
         << info.token_pair_cache_flushed_records << "},\n"
         << "  \"shuffle_partitions\": " << info.shuffle_partitions << ",\n"
         << "  \"full_wall_ms\": " << full.ms << ",\n"
         << "  \"workers_sweep\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepNumbers& s = sweep[i];
      json << (i == 0 ? "" : ", ") << "{\"workers\": " << s.workers
           << ", \"wall_ms\": " << s.wall_ms << ", \"l1_hits\": "
           << s.info.token_pair_cache_l1_hits << ", \"shared_hits\": "
           << s.info.token_pair_cache_hits << ", \"flush_batches\": "
           << s.info.token_pair_cache_flush_batches << "}";
    }
    json << "]\n}\n";
    std::cout << "\nshuffle + cache-tier counters written to "
              << shuffle_json_path << "\n";
  }

  if (!spill_json_path.empty() && spill_budget > 0) {
    std::ofstream json(spill_json_path);
    json << "{\n"
         << "  \"budget_records\": " << spill_budget << ",\n"
         << "  \"spilled_records\": " << spill.total_spilled_records()
         << ",\n"
         << "  \"spill_files\": " << spill.total_spill_files() << ",\n"
         << "  \"spill_bytes\": " << spill.total_spill_bytes() << ",\n"
         << "  \"spill_raw_bytes\": " << spill.total_spill_raw_bytes()
         << ",\n"
         << "  \"compression_ratio\": "
         << (spill.total_spill_bytes() > 0
                 ? static_cast<double>(spill.total_spill_raw_bytes()) /
                       static_cast<double>(spill.total_spill_bytes())
                 : 0.0)
         << ",\n"
         << "  \"checksum_failures\": " << spill.total_checksum_failures()
         << ",\n"
         << "  \"merge_passes\": " << spill.total_merge_passes() << ",\n"
         << "  \"peak_resident_records\": "
         << spill.max_peak_resident_records() << ",\n"
         << "  \"budget_honored\": " << (budget_honored ? "true" : "false")
         << ",\n"
         << "  \"in_memory_peak_shuffle_records\": "
         << full.info.peak_shuffle_records << ",\n"
         << "  \"wall_ms\": " << spill_run.ms << ",\n"
         << "  \"in_memory_wall_ms\": " << full.ms << "\n"
         << "}\n";
    std::cout << "spill counters written to " << spill_json_path << "\n";
  }

  if (!fault_json_path.empty()) {
    // A failed or inconsistent absorbed-fault run exited above, so the
    // result written here is always the lossless one.
    std::ofstream json(fault_json_path);
    json << "{\n"
         << "  \"baseline_wall_ms\": " << full.ms << ",\n"
         << "  \"fault_disabled_wall_ms\": " << disabled.ms << ",\n"
         << "  \"disabled_overhead_pct\": "
         << (full.ms > 0 ? 100.0 * (disabled.ms - full.ms) / full.ms : 0.0)
         << ",\n"
         << "  \"absorbed_wall_ms\": " << absorbed_run.ms << ",\n"
         << "  \"absorbed_task_failures\": "
         << absorbed.total_task_failures() << ",\n"
         << "  \"absorbed_task_retries\": " << absorbed.total_task_retries()
         << ",\n"
         << "  \"absorbed_tasks_cancelled\": "
         << absorbed.total_tasks_cancelled() << ",\n"
         << "  \"absorbed_result_ok\": true\n"
         << "}\n";
    std::cout << "fault-framework counters written to " << fault_json_path
              << "\n";
  }
}

}  // namespace
}  // namespace tsj

int main(int argc, char** argv) {
  std::string shuffle_json_path;
  std::string spill_json_path;
  std::string fault_json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--shuffle_json") {
      shuffle_json_path = argv[i + 1];
    }
    if (std::string(argv[i]) == "--spill_json") {
      spill_json_path = argv[i + 1];
    }
    if (std::string(argv[i]) == "--fault_json") {
      fault_json_path = argv[i + 1];
    }
  }
  tsj::Run(shuffle_json_path, spill_json_path, fault_json_path);
  return 0;
}
