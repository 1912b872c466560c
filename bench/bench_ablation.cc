// Ablation study of TSJ's design choices (not a paper figure): measures,
// on one workload, what each lossless filter (Sec. III-E), the dedup
// strategy and the verification engine tiers (budgeted verify, token-id
// path, shared token-pair cache, per-worker L1 tier) contribute in
// candidate/verification counts, per-tier cache hit rates, peak
// shuffle-resident records and measured wall time. Complements Figs. 1-5,
// which report the paper's own parameter sweeps. The bag filter
// (tokenized/bounds.h) has no switch, so it runs in every row, the
// filter-less ones included.
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
// injector explicitly disarmed (pinning the disabled FAULT_POINT cost —
// one relaxed atomic load per site — at noise level next to the 'full'
// row) and armed with two absorbable task-start faults (showing the
// lossless retry cost). --fault_json <path> emits the overhead and
// absorption counters as JSON (merged into BENCH_verify.json by CI).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

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
};

struct ShuffleNumbers {
  uint64_t map_output_records = 0;
  uint64_t peak_shuffle_records = 0;
  double wall_ms = 0;
};

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

// Returns false when the spill run failed (main exits non-zero so CI's
// merge step never reads a missing/zeroed BENCH_spill.json as success).
bool Run(const std::string& shuffle_json_path,
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
  rows.push_back({"full (all filters, group-on-one, exact)", base});
  {
    TsjOptions o = base;
    o.enable_length_filter = false;
    rows.push_back({"- length filter", o});
  }
  {
    TsjOptions o = base;
    o.enable_histogram_filter = false;
    rows.push_back({"- histogram filter", o});
  }
  {
    TsjOptions o = base;
    o.enable_length_filter = false;
    o.enable_histogram_filter = false;
    rows.push_back({"- both filters", o});
  }
  {
    TsjOptions o = base;
    o.dedup = DedupStrategy::kGroupOnBothStrings;
    rows.push_back({"group-on-both-strings", o});
  }
  {
    TsjOptions o = base;
    o.aligning = TokenAligning::kGreedy;
    rows.push_back({"greedy-token-aligning", o});
  }
  {
    TsjOptions o = base;
    o.matching = TokenMatching::kExact;
    rows.push_back({"exact-token-matching", o});
  }
  {
    // Budgeted-vs-exact verification ablation: identical pairs and NSLD
    // values by construction; the 'verify work' column shows what the
    // budget-aware engine saves.
    TsjOptions o = base;
    o.enable_budgeted_verify = false;
    rows.push_back({"- budgeted verify (unbounded SLD)", o});
  }
  {
    // Token-id verification ablation: same engine, but every candidate
    // materializes byte strings first (and loses the corpus-wide cache).
    TsjOptions o = base;
    o.enable_token_id_verify = false;
    rows.push_back({"- token-id verify (materialized)", o});
  }
  {
    // Cache-only ablation: token-id path kept, cross-candidate token-pair
    // memoization dropped.
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
                      "peak shuffle", "wall (ms)"});
  auto add_row = [&table](const std::string& name, uint64_t pairs,
                          const TsjRunInfo& info, double ms) {
    const uint64_t l1_probes =
        info.token_pair_cache_l1_hits + info.token_pair_cache_l1_misses;
    const uint64_t shared_probes =
        info.token_pair_cache_hits + info.token_pair_cache_misses;
    table.AddRow({name, TablePrinter::Fmt(pairs),
                  TablePrinter::Fmt(info.distinct_candidates),
                  TablePrinter::Fmt(info.verified_candidates),
                  TablePrinter::Fmt(info.verify_work_units),
                  PercentOrDash(info.token_pair_cache_l1_hits, l1_probes),
                  PercentOrDash(info.token_pair_cache_hits, shared_probes),
                  info.token_pair_cache_flush_batches == 0
                      ? std::string("-")
                      : TablePrinter::Fmt(info.token_pair_cache_flush_batches),
                  TablePrinter::Fmt(info.peak_shuffle_records),
                  TablePrinter::Fmt(ms, 0)});
  };
  uint64_t budgeted_work = 0, unbounded_work = 0;
  ShuffleNumbers streaming_numbers;
  TsjRunInfo full_info;
  double full_wall_ms = 0;
  for (const auto& row : rows) {
    Stopwatch watch;
    TsjRunInfo info;
    const auto result =
        TokenizedStringJoiner(row.options).SelfJoin(workload.corpus, &info);
    const double ms = watch.ElapsedMillis();
    if (!result.ok()) continue;
    if (row.name == rows.front().name) {
      budgeted_work = info.verify_work_units;
      streaming_numbers = {info.pipeline.total_map_output_records(),
                           info.peak_shuffle_records, ms};
      full_info = info;
      full_wall_ms = ms;
    }
    if (!row.options.enable_budgeted_verify) {
      unbounded_work = info.verify_work_units;
    }
    add_row(row.name, result->size(), info, ms);
  }
  // ---- Out-of-core spill row: the full configuration under a memory
  // budget of a quarter of its own in-memory shuffle peak, so several
  // spill/merge cycles actually happen on the bench workload. Same
  // pairs/NSLD by construction; the row shows what bounding residency
  // costs in wall time, and the gauge proves the budget held.
  TsjRunInfo spill_info;
  double spill_wall_ms = 0;
  uint64_t spill_budget = 0;
  bool spill_run_ok = false;
  if (streaming_numbers.peak_shuffle_records > 0) {
    spill_budget =
        std::max<uint64_t>(1024, streaming_numbers.peak_shuffle_records / 4);
    TsjOptions o = base;
    o.enable_shuffle_spill = true;
    o.mapreduce.memory_budget_records = static_cast<size_t>(spill_budget);
    Stopwatch watch;
    const auto result =
        TokenizedStringJoiner(o).SelfJoin(workload.corpus, &spill_info);
    spill_wall_ms = watch.ElapsedMillis();
    spill_run_ok = result.ok();
    if (!spill_run_ok) {
      std::cout << "spill run FAILED: " << result.status().ToString()
                << "\n";
    }
    if (result.ok()) {
      add_row("+ shuffle spill (budget = peak/4)", result->size(), spill_info,
              spill_wall_ms);
    }
  }

  // ---- Fault-framework rows: the full configuration with the injector
  // explicitly disarmed (the production state — every FAULT_POINT is one
  // relaxed atomic load, pinned at < 1% wall next to the 'full' row
  // above), and armed with two absorbable start faults to show what a
  // retry actually costs when it happens.
  TsjRunInfo fault_disabled_info;
  double fault_disabled_wall_ms = 0;
  bool fault_disabled_ok = false;
  TsjRunInfo fault_absorbed_info;
  double fault_absorbed_wall_ms = 0;
  bool fault_absorbed_ok = false;
  {
    FaultInjector::Global().Configure("");  // explicit: disarmed
    Stopwatch watch;
    const auto result = TokenizedStringJoiner(base).SelfJoin(
        workload.corpus, &fault_disabled_info);
    fault_disabled_wall_ms = watch.ElapsedMillis();
    fault_disabled_ok = result.ok();
    if (fault_disabled_ok) {
      add_row("+ fault framework (disabled)", result->size(),
                    fault_disabled_info, fault_disabled_wall_ms);
    }
    // Two absorbable start faults: one map task and one reduce task each
    // fail once and re-execute. Byte-identical pairs by the retry
    // contract; the wall column shows the re-execution cost.
    FaultInjector::Global().Configure("task.map=once;task.reduce=once");
    Stopwatch armed_watch;
    const auto armed = TokenizedStringJoiner(base).SelfJoin(
        workload.corpus, &fault_absorbed_info);
    fault_absorbed_wall_ms = armed_watch.ElapsedMillis();
    fault_absorbed_ok = armed.ok();
    FaultInjector::Global().ConfigureFromEnv();
    if (fault_absorbed_ok) {
      add_row("+ fault injection (2 absorbed faults)", armed->size(),
              fault_absorbed_info, fault_absorbed_wall_ms);
    }
  }

  table.Print(std::cout);
  if (fault_disabled_ok && full_wall_ms > 0) {
    std::cout << "\nfault framework disarmed overhead: " << full_wall_ms
              << " ms (no framework row) vs " << fault_disabled_wall_ms
              << " ms (disarmed injector): "
              << 100.0 * (fault_disabled_wall_ms - full_wall_ms) /
                     full_wall_ms
              << "% (noise-level by contract; FAULT_POINT is one relaxed "
                 "atomic load when disarmed)\n";
  }
  if (fault_absorbed_ok) {
    std::cout << "fault absorption: " << fault_absorbed_info.task_failures
              << " injected task failures, "
              << fault_absorbed_info.task_retries
              << " lossless re-executions, "
              << fault_absorbed_info.tasks_cancelled
              << " cancellations; wall " << fault_absorbed_wall_ms
              << " ms vs " << fault_disabled_wall_ms << " ms fault-free\n";
  }
  if (spill_budget > 0 && spill_run_ok) {
    std::cout << "\nout-of-core spill (budget "
              << spill_budget << " records = in-memory peak/4): "
              << spill_info.spilled_records << " records spilled across "
              << spill_info.spill_files << " run files, "
              << spill_info.merge_passes << " merge passes; "
              << "peak resident " << spill_info.peak_resident_records
              << " records (budget honored: "
              << (spill_info.peak_resident_records <=
                          spill_budget + spill_budget / 8
                      ? "yes"
                      : "NO")
              << ")\n";
    if (spill_info.spill_bytes > 0) {
      std::cout << "spill v2 format: "
                << spill_info.spill_raw_bytes << " raw record bytes -> "
                << spill_info.spill_bytes << " bytes on disk ("
                << static_cast<double>(spill_info.spill_raw_bytes) /
                       static_cast<double>(spill_info.spill_bytes)
                << "x compression), "
                << spill_info.spill_bytes / spill_info.spill_files
                << " bytes per file, " << spill_info.checksum_failures
                << " checksum failures\n";
    }
  }
  if (budgeted_work > 0 && unbounded_work > 0) {
    std::cout << "\nbudgeted verify saving: "
              << static_cast<double>(unbounded_work) /
                     static_cast<double>(budgeted_work)
              << "x fewer verify work units than unbounded SLD\n";
  }
  std::cout << "\nexpectations: removing filters raises 'verified' with the "
               "same result pairs; the approximations only shrink the "
               "result; disabling budgeted verify, token-id verify, or "
               "either cache tier changes nothing but the work/traffic/wall "
               "columns (byte-identical pairs and NSLD values).\n";

  // ---- Workers sweep: the contention picture in one table. ---------------
  std::cout << "\n";
  TablePrinter sweep_table({"configuration", "workers", "L1 hit%",
                            "shared hit%", "flushes", "peak shuffle",
                            "wall (ms)"});
  std::vector<SweepNumbers> sweep;
  std::vector<size_t> worker_counts = {1};
  if (hw > 1) worker_counts.push_back(hw);
  for (const size_t workers : worker_counts) {
    for (const bool l1 : {true, false}) {
      TsjOptions o = base;
      o.mapreduce.num_workers = workers;
      o.enable_l1_verify_cache = l1;
      Stopwatch watch;
      TsjRunInfo info;
      const auto result =
          TokenizedStringJoiner(o).SelfJoin(workload.corpus, &info);
      const double ms = watch.ElapsedMillis();
      if (!result.ok()) continue;
      const uint64_t l1_probes =
          info.token_pair_cache_l1_hits + info.token_pair_cache_l1_misses;
      const uint64_t shared_probes =
          info.token_pair_cache_hits + info.token_pair_cache_misses;
      sweep_table.AddRow(
          {l1 ? "full (L1 + batched flush)" : "shared shards only",
           TablePrinter::Fmt(uint64_t{workers}),
           PercentOrDash(info.token_pair_cache_l1_hits, l1_probes),
           PercentOrDash(info.token_pair_cache_hits, shared_probes),
           info.token_pair_cache_flush_batches == 0
               ? std::string("-")
               : TablePrinter::Fmt(info.token_pair_cache_flush_batches),
           TablePrinter::Fmt(info.peak_shuffle_records),
           TablePrinter::Fmt(ms, 0)});
      if (l1) sweep.push_back(SweepNumbers{workers, info, ms});
    }
  }
  std::cout << "workers sweep (full configuration vs shared-shards-only "
               "cache):\n";
  sweep_table.Print(std::cout);

  if (!shuffle_json_path.empty()) {
    std::ofstream json(shuffle_json_path);
    json << "{\n"
         << "  \"workload\": {\"accounts\": " << workload.corpus.size()
         << ", \"threshold\": " << base.threshold
         << ", \"max_token_frequency\": " << base.max_token_frequency
         << ", \"hardware_workers\": " << hw << "},\n"
         << "  \"streaming\": {\"map_output_records\": "
         << streaming_numbers.map_output_records
         << ", \"peak_shuffle_records\": "
         << streaming_numbers.peak_shuffle_records
         << ", \"wall_ms\": " << streaming_numbers.wall_ms << "},\n"
         << "  \"cache_tiers\": {\"l1_hits\": "
         << full_info.token_pair_cache_l1_hits
         << ", \"l1_misses\": " << full_info.token_pair_cache_l1_misses
         << ", \"shared_hits\": " << full_info.token_pair_cache_hits
         << ", \"shared_misses\": " << full_info.token_pair_cache_misses
         << ", \"flush_batches\": "
         << full_info.token_pair_cache_flush_batches
         << ", \"flushed_records\": "
         << full_info.token_pair_cache_flushed_records << "},\n"
         << "  \"shuffle_partitions\": " << full_info.shuffle_partitions
         << ",\n"
         << "  \"full_wall_ms\": " << full_wall_ms << ",\n"
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

  // Only a successful spill run may feed the perf trajectory — a failed
  // run's zeroed counters would read as "budget honored" in CI.
  if (!spill_json_path.empty() && spill_budget > 0 && spill_run_ok) {
    std::ofstream json(spill_json_path);
    json << "{\n"
         << "  \"budget_records\": " << spill_budget << ",\n"
         << "  \"spilled_records\": " << spill_info.spilled_records << ",\n"
         << "  \"spill_files\": " << spill_info.spill_files << ",\n"
         << "  \"spill_bytes\": " << spill_info.spill_bytes << ",\n"
         << "  \"spill_raw_bytes\": " << spill_info.spill_raw_bytes << ",\n"
         << "  \"compression_ratio\": "
         << (spill_info.spill_bytes > 0
                 ? static_cast<double>(spill_info.spill_raw_bytes) /
                       static_cast<double>(spill_info.spill_bytes)
                 : 0.0)
         << ",\n"
         << "  \"checksum_failures\": " << spill_info.checksum_failures
         << ",\n"
         << "  \"merge_passes\": " << spill_info.merge_passes << ",\n"
         << "  \"peak_resident_records\": "
         << spill_info.peak_resident_records << ",\n"
         << "  \"budget_honored\": "
         << (spill_info.peak_resident_records <=
                     spill_budget + spill_budget / 8
                 ? "true"
                 : "false")
         << ",\n"
         << "  \"in_memory_peak_shuffle_records\": "
         << streaming_numbers.peak_shuffle_records << ",\n"
         << "  \"wall_ms\": " << spill_wall_ms << ",\n"
         << "  \"in_memory_wall_ms\": " << full_wall_ms << "\n"
         << "}\n";
    std::cout << "spill counters written to " << spill_json_path << "\n";
  }

  if (!fault_json_path.empty() && fault_disabled_ok) {
    std::ofstream json(fault_json_path);
    json << "{\n"
         << "  \"baseline_wall_ms\": " << full_wall_ms << ",\n"
         << "  \"fault_disabled_wall_ms\": " << fault_disabled_wall_ms
         << ",\n"
         << "  \"disabled_overhead_pct\": "
         << (full_wall_ms > 0
                 ? 100.0 * (fault_disabled_wall_ms - full_wall_ms) /
                       full_wall_ms
                 : 0.0)
         << ",\n"
         << "  \"absorbed_wall_ms\": "
         << (fault_absorbed_ok ? fault_absorbed_wall_ms : 0) << ",\n"
         << "  \"absorbed_task_failures\": "
         << (fault_absorbed_ok ? fault_absorbed_info.task_failures : 0)
         << ",\n"
         << "  \"absorbed_task_retries\": "
         << (fault_absorbed_ok ? fault_absorbed_info.task_retries : 0)
         << ",\n"
         << "  \"absorbed_tasks_cancelled\": "
         << (fault_absorbed_ok ? fault_absorbed_info.tasks_cancelled : 0)
         << ",\n"
         << "  \"absorbed_result_ok\": "
         << (fault_absorbed_ok ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "fault-framework counters written to " << fault_json_path
              << "\n";
  }

  return (spill_budget == 0 || spill_run_ok) && fault_disabled_ok;
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
  return tsj::Run(shuffle_json_path, spill_json_path, fault_json_path) ? 0 : 1;
}
