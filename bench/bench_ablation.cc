// Ablation study of TSJ's design choices (DESIGN.md, not a paper figure):
// measures, on one workload, what each lossless filter (Sec. III-E), the
// dedup strategy, the verification engine tiers (budgeted verify,
// token-id path, shared token-pair cache, per-worker L1 tier) and the
// shuffle (combiner, skew-adaptive partitioning) contribute in candidate/verification counts, per-tier cache hit rates,
// combiner record reduction, peak shuffle-resident records and measured
// wall time. Complements Figs. 1-5, which report the paper's own
// parameter sweeps.
//
// A --workers sweep table shows the contention story directly: the same
// full configuration at workers=1 vs workers=hw, with the L1/shared
// hit split and flush-batch counts that explain where the multi-thread
// win comes from.
//
// With --shuffle_json <path>, additionally writes the shuffle counters
// (map output records, pipeline peak shuffle-resident records) plus the
// cache-tier and combiner counters of the workers=hw run as JSON, which CI merges into BENCH_verify.json so
// the memory and contention wins are tracked in the perf trajectory.
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
//
// The checkpoint rows run the full configuration sealing every map task
// under a scratch checkpoint directory ("+ checkpointing (no fault)": the
// pure sealing cost, within run-to-run noise by contract), then abort a
// checkpointing run with a fatal reduce fault and restart it over the
// sealed artifacts ("+ restart after fault": the restore-and-skip win).
// --ckpt_json <path> emits the overhead, the checkpointed/skipped task
// counts and the restart wall as JSON (merged into BENCH_verify.json by
// CI).

#include <algorithm>
#include <filesystem>
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

// "in->out" combiner column; "-" when no combiner ran.
std::string CombinerColumn(const TsjRunInfo& info) {
  if (info.combiner_input_records == 0) return "-";
  return TablePrinter::Fmt(info.combiner_input_records) + ">" +
         TablePrinter::Fmt(info.combiner_output_records);
}

// Returns false when the spill run failed (main exits non-zero so CI's
// merge step never reads a missing/zeroed BENCH_spill.json as success).
bool Run(const std::string& shuffle_json_path,
         const std::string& spill_json_path,
         const std::string& fault_json_path,
         const std::string& ckpt_json_path) {
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
  {
    // Combiner ablation: every duplicate candidate record crosses the
    // stage boundary again.
    TsjOptions o = base;
    o.enable_shuffle_combiner = false;
    rows.push_back({"- shuffle combiner", o});
  }
  {
    // Partition-planning ablation: back to the fixed knob.
    TsjOptions o = base;
    o.adaptive_partitions = false;
    rows.push_back({"- adaptive partitions (fixed 64)", o});
  }
  {
    // The PR 3 configuration: streaming shuffle, shared-shards-only
    // cache, no combiner, fixed partitions — the baseline the
    // contention-relief tier (L1 + combiner + adaptive partitions) is
    // measured against.
    TsjOptions o = base;
    o.enable_l1_verify_cache = false;
    o.enable_shuffle_combiner = false;
    o.adaptive_partitions = false;
    rows.push_back({"PR3 baseline (no L1/combiner/adaptive)", o});
  }

  TablePrinter table({"configuration", "pairs", "distinct cands", "verified",
                      "verify work", "L1 hit%", "shared hit%", "flushes",
                      "comb in>out", "peak shuffle", "wall (ms)"});
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
                  CombinerColumn(info),
                  TablePrinter::Fmt(info.peak_shuffle_records),
                  TablePrinter::Fmt(ms, 0)});
  };
  uint64_t budgeted_work = 0, unbounded_work = 0;
  ShuffleNumbers streaming_numbers;
  TsjRunInfo full_info;
  double full_wall_ms = 0, pr3_wall_ms = 0;
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
    if (row.name.rfind("PR3 baseline", 0) == 0) pr3_wall_ms = ms;
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

  // ---- Checkpoint rows: the full configuration sealing every map task
  // under a scratch directory ("+ checkpointing (no fault)": the pure
  // sealing cost, noise-level by contract since sealing rides the spill
  // writer off the task's critical path), then a fatal-fault abort
  // followed by a restart over the sealed artifacts ("+ restart after
  // fault": validated tasks are restored instead of re-run).
  TsjRunInfo ckpt_info;
  double ckpt_wall_ms = 0;
  bool ckpt_ok = false;
  TsjRunInfo restart_info;
  double restart_wall_ms = 0;
  bool restart_ok = false;
  uint64_t aborted_tasks_checkpointed = 0;
  {
    const std::string ckpt_dir =
        (std::filesystem::temp_directory_path() / "tsj-ablation-ckpt")
            .string();
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
    TsjOptions o = base;
    o.enable_checkpointing = true;
    o.mapreduce.checkpoint_dir = ckpt_dir;
    Stopwatch ckpt_watch;
    const auto sealed =
        TokenizedStringJoiner(o).SelfJoin(workload.corpus, &ckpt_info);
    ckpt_wall_ms = ckpt_watch.ElapsedMillis();
    ckpt_ok = sealed.ok();
    if (ckpt_ok) {
      add_row("+ checkpointing (no fault)", sealed->size(), ckpt_info,
              ckpt_wall_ms);
    }
    // Restart leg: wipe the directory, abort a checkpointing run with a
    // fatal reduce fault (retries off so the fault is terminal), then
    // restart the identical job over whatever map tasks sealed before the
    // abort. Byte-identical pairs by the checkpoint contract; the wall
    // column shows the restore-and-skip path.
    std::filesystem::remove_all(ckpt_dir, ec);
    TsjOptions fatal = o;
    fatal.mapreduce.max_task_retries = 0;
    FaultInjector::Global().Configure("task.reduce=once");
    TsjRunInfo aborted_info;
    const auto aborted =
        TokenizedStringJoiner(fatal).SelfJoin(workload.corpus, &aborted_info);
    FaultInjector::Global().ConfigureFromEnv();
    aborted_tasks_checkpointed = aborted_info.tasks_checkpointed;
    if (!aborted.ok() && aborted_tasks_checkpointed > 0) {
      Stopwatch restart_watch;
      const auto restarted =
          TokenizedStringJoiner(o).SelfJoin(workload.corpus, &restart_info);
      restart_wall_ms = restart_watch.ElapsedMillis();
      restart_ok = restarted.ok();
      if (restart_ok) {
        add_row("+ restart after fault", restarted->size(), restart_info,
                restart_wall_ms);
      }
    }
    std::filesystem::remove_all(ckpt_dir, ec);
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
  if (ckpt_ok && full_wall_ms > 0) {
    std::cout << "checkpoint sealing: " << ckpt_info.tasks_checkpointed
              << " map tasks sealed; wall " << ckpt_wall_ms << " ms vs "
              << full_wall_ms << " ms without checkpointing: "
              << 100.0 * (ckpt_wall_ms - full_wall_ms) / full_wall_ms
              << "% (noise-level by contract; sealing rides the spill "
                 "writer off the critical path)\n";
  }
  if (restart_ok) {
    std::cout << "checkpoint restart: fatal fault aborted the run with "
              << aborted_tasks_checkpointed << " tasks sealed; restart "
              << "restored " << restart_info.tasks_skipped_by_checkpoint
              << " of them ("
              << restart_info.tasks_checkpointed << " newly sealed) in "
              << restart_wall_ms << " ms vs " << ckpt_wall_ms
              << " ms from scratch\n";
  }
  if (spill_budget > 0 && spill_run_ok) {
    std::cout << "\nout-of-core spill (budget "
              << spill_budget << " records = in-memory peak/4): "
              << spill_info.spilled_records << " records spilled across "
              << spill_info.spill_files << " run files ("
              << spill_info.spill_bytes / (1024 * 1024) << " MiB, "
              << spill_info.merge_passes << " merge passes); "
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
                << spill_info.spill_bytes << " on disk ("
                << static_cast<double>(spill_info.spill_raw_bytes) /
                       static_cast<double>(spill_info.spill_bytes)
                << "x compression), " << spill_info.prefetch_hits
                << " prefetch hits, " << spill_info.checksum_failures
                << " checksum failures\n";
    }
  }
  if (budgeted_work > 0 && unbounded_work > 0) {
    std::cout << "\nbudgeted verify saving: "
              << static_cast<double>(unbounded_work) /
                     static_cast<double>(budgeted_work)
              << "x fewer verify work units than unbounded SLD\n";
  }
  if (full_info.combiner_input_records > 0) {
    std::cout << "combiner reduction: " << full_info.combiner_input_records
              << " -> " << full_info.combiner_output_records
              << " records crossed the dedup/verify stage boundary ("
              << (full_info.combiner_output_records > 0
                      ? static_cast<double>(full_info.combiner_input_records) /
                            static_cast<double>(
                                full_info.combiner_output_records)
                      : 0.0)
              << "x)\n";
  }
  std::cout << "\nexpectations: removing filters raises 'verified' with the "
               "same result pairs; the approximations only shrink the "
               "result; disabling budgeted verify, token-id verify, "
               "either cache tier, the combiner, or adaptive "
               "partitioning changes nothing but the work/traffic/wall "
               "columns (byte-identical pairs and NSLD values).\n";

  // ---- Workers sweep: the contention picture in one table. ---------------
  std::cout << "\n";
  TablePrinter sweep_table({"configuration", "workers", "L1 hit%",
                            "shared hit%", "flushes", "comb in>out",
                            "peak shuffle", "wall (ms)"});
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
           CombinerColumn(info), TablePrinter::Fmt(info.peak_shuffle_records),
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
         << "  \"combiner\": {\"records_in\": "
         << full_info.combiner_input_records
         << ", \"records_out\": " << full_info.combiner_output_records
         << "},\n"
         << "  \"shuffle_partitions\": " << full_info.shuffle_partitions
         << ",\n"
         << "  \"full_wall_ms\": " << full_wall_ms
         << ",\n"
         << "  \"pr3_baseline_wall_ms\": " << pr3_wall_ms << ",\n"
         << "  \"workers_sweep\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepNumbers& s = sweep[i];
      json << (i == 0 ? "" : ", ") << "{\"workers\": " << s.workers
           << ", \"wall_ms\": " << s.wall_ms << ", \"l1_hits\": "
           << s.info.token_pair_cache_l1_hits << ", \"shared_hits\": "
           << s.info.token_pair_cache_hits << ", \"flush_batches\": "
           << s.info.token_pair_cache_flush_batches
           << ", \"combiner_records_in\": " << s.info.combiner_input_records
           << ", \"combiner_records_out\": "
           << s.info.combiner_output_records << "}";
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
         << "  \"prefetch_hits\": " << spill_info.prefetch_hits << ",\n"
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

  // Only a run that actually sealed and restored checkpoints may feed the
  // trajectory — a restart that silently re-ran everything would read as a
  // regression-free success in CI.
  if (!ckpt_json_path.empty() && ckpt_ok) {
    std::ofstream json(ckpt_json_path);
    json << "{\n"
         << "  \"baseline_wall_ms\": " << full_wall_ms << ",\n"
         << "  \"checkpoint_wall_ms\": " << ckpt_wall_ms << ",\n"
         << "  \"sealing_overhead_pct\": "
         << (full_wall_ms > 0
                 ? 100.0 * (ckpt_wall_ms - full_wall_ms) / full_wall_ms
                 : 0.0)
         << ",\n"
         << "  \"tasks_checkpointed\": " << ckpt_info.tasks_checkpointed
         << ",\n"
         << "  \"aborted_tasks_checkpointed\": " << aborted_tasks_checkpointed
         << ",\n"
         << "  \"restart_wall_ms\": " << (restart_ok ? restart_wall_ms : 0)
         << ",\n"
         << "  \"restart_tasks_skipped\": "
         << (restart_ok ? restart_info.tasks_skipped_by_checkpoint : 0)
         << ",\n"
         << "  \"restart_tasks_checkpointed\": "
         << (restart_ok ? restart_info.tasks_checkpointed : 0) << ",\n"
         << "  \"restart_result_ok\": " << (restart_ok ? "true" : "false")
         << "\n"
         << "}\n";
    std::cout << "checkpoint counters written to " << ckpt_json_path << "\n";
  }
  return (spill_budget == 0 || spill_run_ok) && fault_disabled_ok && ckpt_ok &&
         restart_ok;
}

}  // namespace
}  // namespace tsj

int main(int argc, char** argv) {
  std::string shuffle_json_path;
  std::string spill_json_path;
  std::string fault_json_path;
  std::string ckpt_json_path;
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
    if (std::string(argv[i]) == "--ckpt_json") {
      ckpt_json_path = argv[i + 1];
    }
  }
  return tsj::Run(shuffle_json_path, spill_json_path, fault_json_path,
                  ckpt_json_path)
             ? 0
             : 1;
}
