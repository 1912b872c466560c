// Tokenized-String Joiner (TSJ), the paper's core framework (Sec. III):
// a generate-filter-verify NSLD self-join executed as a MapReduce pipeline.
//
//   generate: shared-token candidates (one reduce group per token,
//             Sec. III-C) plus similar-token candidates through a MassJoin
//             NLD-join over the token space (Sec. III-D, justified by
//             Theorem 3);
//   filter:   high-frequency tokens dropped up front (M, Sec. III-G.2);
//             the Lemma 6 length filter (Sec. III-E.1) runs inside
//             generation: every generator walks its strings in
//             aggregate-length order and emits only the pairs whose
//             length bound is within T, so pruned pairs never reach the
//             dedup shuffle; distinct candidates are then pruned by the
//             token-length-histogram SLD lower bound (Sec. III-E.2) — both
//             lossless;
//   verify:   surviving pairs checked with the budget-aware SLD engine
//             (tokenized/sld.h): the NSLD threshold becomes an integer SLD
//             budget, and BoundedSld certifies "within" (with the exact
//             SLD, so reported NSLD values match the unbounded path
//             byte-for-byte) or "over" while skipping the DP/solver work a
//             doomed pair would waste (Sec. III-F; exact Hungarian or
//             greedy-token-aligning per Sec. III-G.5). When both sides
//             share one Corpus the engine runs directly on interned
//             token-id spans — Myers bit-parallel edge kernel, a
//             corpus-wide TokenPairCache across candidates, and no
//             per-candidate materialization; cross-corpus joins resolve
//             ids into per-thread scratch via Corpus::MaterializeInto.
//             Candidates of one reduce group verify in aggregate-length
//             order so DP scratch and cache lines stay resident.
//
// Every stage runs on the in-process MapReduce engine and records JobStats,
// so a run can be replayed through the simulated-cluster model at any
// machine count (Figs. 1-3, 7).

#ifndef TSJ_TSJ_TSJ_H_
#define TSJ_TSJ_TSJ_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_stats.h"
#include "tokenized/corpus.h"
#include "tsj/options.h"

namespace tsj {

/// One joined pair: string ids (a < b) and their exact (or greedy,
/// depending on TsjOptions::aligning) NSLD.
struct TsjPair {
  StringId a = 0;
  StringId b = 0;
  double nsld = 0.0;

  bool operator==(const TsjPair& other) const {
    return a == other.a && b == other.b;
  }
};

/// Counters and per-job statistics of one TSJ run.
struct TsjRunInfo {
  /// Per-job MapReduce statistics, in execution order.
  PipelineStats pipeline;

  /// Distinct tokens ignored because they occur in more than M strings.
  uint64_t dropped_tokens = 0;
  /// Candidate pairs the shared-token pass emitted into the dedup shuffle
  /// (pre-dedup, after the length window).
  uint64_t shared_token_candidates = 0;
  /// Similar (non-identical) token pairs found by the MassJoin NLD-join.
  uint64_t similar_token_pairs = 0;
  /// Candidate pairs the similar-token expansion emitted into the dedup
  /// shuffle (pre-dedup, after the length window).
  uint64_t similar_token_candidates = 0;
  /// Distinct candidate pairs after dedup; each one the length window
  /// admitted, so distinct_candidates == histogram_filtered +
  /// verified_candidates.
  uint64_t distinct_candidates = 0;
  /// Emissions the length window (Sec. III-E.1) skipped during
  /// generation, counted before dedup: a pair generated through k tokens
  /// counts k times. Zero when TsjOptions::enable_length_filter is off.
  uint64_t length_filtered = 0;
  /// Candidates pruned by the histogram filter (Sec. III-E.2).
  uint64_t histogram_filtered = 0;
  /// Candidates that reached full SLD verification.
  uint64_t verified_candidates = 0;
  /// Deterministic work units spent inside SLD verification (same units as
  /// SldWorkUnits). With budgeted verify this counts the operations
  /// actually performed, so comparing it against an
  /// enable_budgeted_verify=false run measures the verification saving
  /// directly (bench_ablation does exactly that).
  uint64_t verify_work_units = 0;
  /// Token-pair-cache probes answered by the per-worker L1 tier (no
  /// shared-shard traffic at all; tokenized/token_pair_cache.h).
  uint64_t token_pair_cache_l1_hits = 0;
  /// L1-tier probes that missed the L1 (and either fell through to the
  /// shared shards or recomputed below the shared-probe cost gate).
  uint64_t token_pair_cache_l1_misses = 0;
  /// Token-pair-cache lookups answered from the shared shards.
  uint64_t token_pair_cache_hits = 0;
  /// Shared-shard lookups that fell through to the LD kernel.
  uint64_t token_pair_cache_misses = 0;
  /// Deferred-upsert batches flushed from L1 tiers into the shared shards
  /// (each batch takes every touched shard's spinlock once).
  uint64_t token_pair_cache_flush_batches = 0;
  /// Deferred upserts flushed (records; the per-edge shared-shard inserts
  /// these batches replaced).
  uint64_t token_pair_cache_flushed_records = 0;
  /// Always 0; read by perfbench/; delete at the next benchmark change
  /// (ROADMAP item 6).
  uint64_t batched_verify_calls = 0;
  uint64_t batched_verify_lanes_filled = 0;
  uint64_t batched_verify_lane_slots = 0;
  /// Records scanned by the shuffle combiner (pre-combine candidate
  /// volume) and records it kept. input - output is the shuffle
  /// traffic the combiner removed before the dedup/verify stage boundary.
  uint64_t combiner_input_records = 0;
  uint64_t combiner_output_records = 0;
  /// Shuffle partition count the run actually executed with (the adaptive
  /// planner's choice when TsjOptions::adaptive_partitions is on,
  /// otherwise the configured fixed count).
  uint64_t shuffle_partitions = 0;
  /// External-memory spill counters (mapreduce/spill.h), summed across
  /// the run's jobs; all zero when TsjOptions::enable_shuffle_spill is
  /// off or the budget never overflowed. spilled_records counts records
  /// written to disk as sorted runs (post-flush-combine); merge_passes
  /// counts per-partition sort-merge passes (final streamed merges plus
  /// hierarchical pre-merges).
  uint64_t spilled_records = 0;
  uint64_t spill_files = 0;
  uint64_t spill_bytes = 0;
  /// Pre-compression serialized bytes (spill_raw_bytes / spill_bytes =
  /// the spill compression ratio; see JobStats::spill_raw_bytes).
  uint64_t spill_raw_bytes = 0;
  uint64_t merge_passes = 0;
  /// v2 spill frames that failed their checksum on read (each also
  /// surfaces as a lossy spill fault failing the join).
  uint64_t checksum_failures = 0;
  /// Merge-input read chunks served by the async prefetcher before the
  /// merge asked for them.
  uint64_t prefetch_hits = 0;
  /// Largest per-job high-water mark of records resident in memory under
  /// the spill policy (JobStats::peak_resident_records): the gauge that
  /// proves memory_budget_records was honored. Equals the in-memory peak
  /// when no spill ran.
  uint64_t peak_resident_records = 0;
  /// Task-level fault-tolerance counters (the fault contract in
  /// mapreduce.h), summed across the run's jobs: failed task attempts,
  /// deterministic lossless re-executions, tasks skipped after a fatal
  /// sibling failure tripped the job's cancellation token, and tasks the
  /// CC_TASK_TIMEOUT_MS watchdog observed running past the timeout. A
  /// fatal task error additionally fails the join (its Status is
  /// returned); retried-and-absorbed faults only show up here.
  uint64_t task_failures = 0;
  uint64_t task_retries = 0;
  uint64_t tasks_cancelled = 0;
  uint64_t tasks_degraded = 0;
  /// Checkpoint/restart and hedged-execution counters (the checkpoint
  /// and hedge contracts in mapreduce.h), summed across the run's jobs:
  /// map tasks whose output was sealed under checkpoint_dir, map tasks a
  /// restarted run skipped by restoring a validated checkpoint, hedged
  /// attempts launched for watchdog-flagged stragglers, and hedges that
  /// finished before their primary. All zero unless
  /// TsjOptions::enable_checkpointing / the watchdog armed them.
  uint64_t tasks_checkpointed = 0;
  uint64_t tasks_skipped_by_checkpoint = 0;
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;
  /// Pairs in the final result.
  uint64_t result_pairs = 0;
  /// Pipeline-wide high-water mark of shuffle-resident records: one
  /// ShuffleGauge threads through every MapReduce job of the run
  /// (including the MassJoin sub-pipeline) plus the similar-token side
  /// input held between jobs.
  uint64_t peak_shuffle_records = 0;
};

/// The joiner. Thread-compatible: one instance may run joins sequentially;
/// distinct instances are independent.
class TokenizedStringJoiner {
 public:
  explicit TokenizedStringJoiner(TsjOptions options)
      : options_(options) {}

  /// Self-joins `corpus` (Sec. III-G.1): returns all pairs of distinct
  /// string ids whose NSLD is at most options.threshold. With
  /// TokenMatching::kFuzzy and TokenAligning::kExact the result is exact;
  /// the approximations only ever *miss* pairs (precision stays 1.0).
  /// Pairs are duplicate-free with a < b, in unspecified order.
  StatusOr<std::vector<TsjPair>> SelfJoin(const Corpus& corpus,
                                          TsjRunInfo* info = nullptr) const;

  /// Joins two collections (the general problem of Sec. II-B): returns all
  /// pairs (r, p), r in r_corpus and p in p_corpus, with
  /// NSLD(r, p) <= options.threshold. In each returned TsjPair, `a` is the
  /// id within r_corpus and `b` the id within p_corpus (no a < b
  /// normalization — the two id spaces are distinct). The token-frequency
  /// cutoff M applies to a token's total string count across both
  /// collections. Exactness/approximation guarantees match SelfJoin.
  StatusOr<std::vector<TsjPair>> Join(const Corpus& r_corpus,
                                      const Corpus& p_corpus,
                                      TsjRunInfo* info = nullptr) const;

  const TsjOptions& options() const { return options_; }

 private:
  TsjOptions options_;
};

}  // namespace tsj

#endif  // TSJ_TSJ_TSJ_H_
