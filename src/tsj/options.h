// Configuration of the Tokenized-String Joiner (Sec. III).

#ifndef TSJ_TSJ_OPTIONS_H_
#define TSJ_TSJ_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "mapreduce/mapreduce.h"
#include "tokenized/sld.h"
#include "tokenized/token_pair_cache.h"

namespace tsj {

/// How similar-token candidates are generated (Sec. III-G.4).
enum class TokenMatching {
  /// Full similar-token generation through MassJoin NLD-joins plus the
  /// shared-token pass: the lossless configuration.
  kFuzzy,
  /// Exact-token-matching approximation: only the shared-token pass runs.
  /// Cheaper, misses pairs whose every common token was edited.
  kExact,
};

/// How duplicate candidate pairs are eliminated (Sec. III-G.3).
enum class DedupStrategy {
  /// One reduce group per *string*; the reducer dedups and verifies all of
  /// that string's candidates. Fewer workers, less instantiation overhead,
  /// more skew.
  kGroupOnOneString,
  /// One reduce group per *pair*. More workers, better load balance.
  kGroupOnBothStrings,
};

/// Tunables of a TSJ run. Defaults follow the paper's evaluation defaults
/// (T = 0.1, M = 1,000; Sec. V).
struct TsjOptions {
  /// NSLD threshold T: pairs with NSLD <= threshold are joined.
  double threshold = 0.1;

  /// High-frequency-token cutoff M (Sec. III-G.2): tokens contained in
  /// more than this many tokenized strings are ignored by candidate
  /// generation (both passes).
  uint32_t max_token_frequency = 1000;

  /// Candidate-generation mode (fuzzy vs. exact-token-matching).
  TokenMatching matching = TokenMatching::kFuzzy;

  /// Verification alignment (exact Hungarian vs. greedy-token-aligning,
  /// Sec. III-G.5).
  TokenAligning aligning = TokenAligning::kExact;

  /// Dedup strategy for candidate pairs.
  DedupStrategy dedup = DedupStrategy::kGroupOnOneString;

  /// Length filter (Sec. III-E.1, Lemma 6 lower bound), applied where
  /// candidate pairs are generated: each generator walks its strings in
  /// aggregate-length order and emits only the pairs whose bound is
  /// within T, so the dedup shuffle never carries the others
  /// (TsjRunInfo::length_filtered counts the skipped emissions). Lossless.
  /// Disabled, every generated pair goes through dedup and verify.
  bool enable_length_filter = true;

  /// Token-length-histogram filter (Sec. III-E.2). Lossless.
  bool enable_histogram_filter = true;

  /// Budget-aware verification (tokenized/sld.h): converts the NSLD
  /// threshold into an integer SLD budget per candidate and verifies with
  /// BoundedSld, which skips DP/solver work as soon as the pair provably
  /// misses the threshold. Lossless: joins the same pairs with the same
  /// NSLD values as the unbounded path. Disable only to measure the
  /// unbounded baseline (bench_ablation does).
  bool enable_budgeted_verify = true;

  /// Token-id-level verification: when the two sides of a candidate share
  /// one Corpus (self-joins, or Join called with the same corpus twice),
  /// verify on the interned token-id spans directly instead of
  /// materializing byte strings per candidate (no MaterializeInto, no
  /// byte copies, duplicate detection by id). Lossless: byte-identical
  /// pairs and NSLD values. Requires enable_budgeted_verify; cross-corpus
  /// joins fall back to the materialized path automatically. Disable only
  /// to measure the materialized baseline (bench_ablation does).
  bool enable_token_id_verify = true;

  /// Corpus-wide memoization of token-pair edge distances
  /// (tokenized/token_pair_cache.h): duplicate token pairs across
  /// *candidates* skip the LD kernel entirely. Only effective on the
  /// token-id verification path. Lossless: a served entry equals what the
  /// kernel would have computed. Disable only to measure the uncached
  /// baseline (bench_ablation does).
  bool enable_token_pair_cache = true;

  /// Shuffle combiner: duplicate candidate records collapse inside the
  /// producing task — combine-at-sort in the emitter buckets
  /// (PartitionedEmitter::Combine) — before they cross into the
  /// dedup/verify shuffle, so a hot token's quadratic candidate fan-out
  /// shrinks at its source instead of shipping every copy. Lossless: the
  /// dedup reducers already treat duplicates as one candidate; only
  /// shuffle volume, peak residency and wall change
  /// (TsjRunInfo::combiner_{input,output}_records report the reduction).
  /// Disable only to measure the combiner-free baseline (bench_ablation
  /// does).
  bool enable_shuffle_combiner = true;

  /// Per-worker L1 tier of the token-pair cache (two-tier probe contract
  /// in tokenized/sld.h): cache probes hit a lock-free table private to
  /// the verify thread first, shared-shard traffic happens only on L1
  /// misses, and shared upserts flush in per-reduce-group batches —
  /// taking each shard spinlock once per batch instead of once per edge.
  /// Lossless: every served value equals what the kernel would compute.
  /// Only effective when the token pair cache itself is enabled. Disable
  /// only to measure the shared-shards-only baseline (bench_ablation
  /// does).
  bool enable_l1_verify_cache = true;

  /// External-memory shuffle spill (mapreduce/spill.h): when enabled AND
  /// mapreduce.memory_budget_records is set, the fused pipeline's jobs
  /// keep at most that many shuffle records resident, flushing
  /// over-budget partition buckets to disk as sorted (and combined) runs
  /// and driving the dedup/verify reducers from a k-way sort-merge of the
  /// runs — so corpora whose candidate shuffle outgrows RAM still join.
  /// Lossless: byte-identical pairs, NSLD values and candidate/filter
  /// counters (the spill-forced differential sweep pins it). Off by default: the budget in mapreduce options is ignored
  /// unless this is set (the CC_SHUFFLE_SPILL_BUDGET test-tier override
  /// bypasses this gate by design — see mapreduce.h). Lossy spill faults
  /// (a failed run read aborted a merge; output may be incomplete)
  /// surface as the join's error Status; degraded write faults keep
  /// their complete in-memory results and are reported via the per-job
  /// JobStats::spill_status only. TsjRunInfo reports
  /// spilled_records/spill_files/spill_bytes/merge_passes and the
  /// peak-resident-records gauge that proves the budget held.
  bool enable_shuffle_spill = false;

  /// Checkpoint/restart (mapreduce.h "Checkpoint validity"): when enabled
  /// AND mapreduce.checkpoint_dir is set, every pipeline job seals
  /// completed map tasks' outputs under that directory and a restarted
  /// run over the same corpus skips tasks whose checkpoint validates —
  /// byte-identical results, counted in TsjRunInfo::tasks_checkpointed /
  /// tasks_skipped_by_checkpoint. When mapreduce.checkpoint_fingerprint
  /// is 0 the run derives one from the corpus statistics and join
  /// parameters, so a dir accidentally reused across different inputs
  /// invalidates instead of corrupting. Off by default: the engine-level
  /// dir is ignored (stripped) unless this is set, mirroring the
  /// enable_shuffle_spill gate (the CC_CHECKPOINT_DIR env override is
  /// engine-level, write-only, and bypasses this gate by design).
  bool enable_checkpointing = false;

  /// Skew-adaptive shuffle partitioning (mapreduce/cluster_model.h,
  /// AdaptivePartitionCount): the run derives its shuffle partition count
  /// from the token-frequency profile it computes anyway — more
  /// partitions when a few hot tokens dominate the reduce load, the
  /// classic 4-per-worker when the profile is uniform — instead of the
  /// fixed mapreduce.num_partitions knob, which remains the fallback for
  /// empty profiles and the value used when this is disabled. Lossless:
  /// results are partition-count-invariant (the differential harness pins
  /// that); only load balance and wall change. Disable to control the
  /// partition count exactly (the differential partition sweeps do).
  bool adaptive_partitions = true;

  /// Optional externally owned cache to use instead of the per-run one,
  /// letting repeated joins over the same corpus start warm. Must have
  /// been used only with the corpus being joined (token ids are
  /// corpus-relative). Ignored unless the token-id path and the cache are
  /// enabled. Not owned.
  TokenPairCache* shared_token_pair_cache = nullptr;

  /// MapReduce engine configuration shared by all pipeline jobs.
  MapReduceOptions mapreduce;

  /// Validates the option combination.
  Status Validate() const {
    // Written so that NaN, for which every comparison is false, fails.
    if (!(threshold >= 0.0 && threshold < 1.0)) {
      return Status::InvalidArgument(
          "threshold must satisfy 0 <= T < 1 (NSLD == 1 only for empty "
          "strings)");
    }
    if (max_token_frequency == 0) {
      return Status::InvalidArgument(
          "max_token_frequency (M) must be at least 1");
    }
    return Status::OK();
  }
};

}  // namespace tsj

#endif  // TSJ_TSJ_OPTIONS_H_
