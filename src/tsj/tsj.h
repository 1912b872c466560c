// Tokenized-String Joiner (TSJ), the paper's core framework (Sec. III):
// a generate-filter-verify NSLD self-join executed as a MapReduce pipeline.
//
//   generate: shared-token candidates (one reduce group per token,
//             Sec. III-C) plus similar-token candidates through a MassJoin
//             NLD-join over the token space (Sec. III-D, justified by
//             Theorem 3). MassJoin sees only the surviving tokens that can
//             have a partner with a different text (a token of length l
//             is at NLD >= 1/(l+1) from every other text,
//             MinNldToDifferentString), and only the tokens of a similar
//             pair get a posting list (token -> strings containing it) to
//             expand it through;
//   filter:   high-frequency tokens dropped up front (M, Sec. III-G.2);
//             the Lemma 6 length filter (Sec. III-E.1) and the bag filter
//             run inside generation: every generator walks its strings in
//             aggregate-length order, and of the pairs whose length bound
//             is within T it emits only those whose character-bag SLD
//             bound (tokenized/bounds.h) is within the SLD budget of T
//             too, each test an integer table read, so pruned pairs
//             never reach the dedup shuffle; distinct candidates are then
//             pruned by the token-length-histogram SLD lower bound
//             (Sec. III-E.2) — all lossless. The bag filter is not in the
//             paper and has no switch; it runs at both emit sites
//             (shared-token pairs and similar-token expansion);
//   verify:   surviving pairs checked with the budget-aware SLD engine
//             (tokenized/sld.h): the NSLD threshold becomes an integer SLD
//             budget, and BoundedSld certifies "within" (with the exact
//             SLD, so reported NSLD values match the unbounded path
//             byte-for-byte) or "over" while skipping the DP/solver work a
//             doomed pair would waste (Sec. III-F; exact Hungarian or
//             greedy-token-aligning per Sec. III-G.5). The engine runs
//             directly on interned token-id spans — Myers bit-parallel
//             edge kernel, no per-candidate materialization — and a
//             self-join adds a corpus-wide TokenPairCache across
//             candidates. Candidates of one reduce group verify in
//             aggregate-length order so DP scratch and cache lines stay
//             resident. The filters and the budgeted token-id verify
//             have no switch: the brute-force differentials pin them
//             against the unfiltered, unbounded oracle.
//
// Both join forms run this one pipeline over one Corpus. The general
// R x P join (Sec. II-B) copies R's strings and then P's into one corpus
// and marks the boundary between them; pair enumeration then crosses a
// token's R strings with its P strings instead of pairing all of them,
// and nothing else differs.
//
// Every stage runs on the in-process MapReduce engine and records its
// JobStats into TsjRunInfo::pipeline.

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
};

/// Counters and per-job statistics of one TSJ run.
///
/// The candidate and filter counters, shared_token_candidates through
/// verify_work_units (similar_token_pairs aside, which MassJoin reports),
/// are counted in one slot per worker of the fused job and summed once
/// the job ends: no candidate touches a counter another worker writes.
/// They count the same at every worker and partition count, except
/// verify_work_units with the token-pair cache on.
struct TsjRunInfo {
  /// Per-job MapReduce statistics, in execution order. The run's spill and
  /// task counters are its totals (PipelineStats::total_spilled_records(),
  /// max_peak_resident_records(), total_task_retries(), ...). A join that
  /// fails in MassJoin holds MassJoin's two jobs only.
  PipelineStats pipeline;

  /// Distinct tokens ignored because they occur in more than M strings.
  uint64_t dropped_tokens = 0;
  /// Candidate pairs the shared-token pass emitted into the dedup shuffle
  /// (pre-dedup, after the length window).
  uint64_t shared_token_candidates = 0;
  /// Similar (non-identical) token pairs found by the MassJoin NLD-join:
  /// all pairs of distinct surviving tokens within NLD T.
  uint64_t similar_token_pairs = 0;
  /// Candidate pairs the similar-token expansion emitted into the dedup
  /// shuffle (pre-dedup, after the length window).
  uint64_t similar_token_candidates = 0;
  /// Distinct candidate pairs after dedup; each one the length window and
  /// the bag filter admitted, so distinct_candidates ==
  /// histogram_filtered + verified_candidates.
  uint64_t distinct_candidates = 0;
  /// Emissions the length window (Sec. III-E.1) skipped during
  /// generation, counted before dedup: a pair generated through k tokens
  /// counts k times.
  uint64_t length_filtered = 0;
  /// Emissions the bag filter skipped during generation: pairs the length
  /// window admitted whose character-bag SLD bound (tokenized/bounds.h)
  /// exceeds the SLD budget of the threshold, the predicate NSLD > T.
  /// Counted before dedup like length_filtered, so
  /// for exact-token matching shared_token_candidates + bag_filtered is
  /// the number of pairs the window admitted.
  uint64_t bag_filtered = 0;
  /// Candidates pruned by the histogram filter (Sec. III-E.2).
  uint64_t histogram_filtered = 0;
  /// Candidates that reached full SLD verification.
  uint64_t verified_candidates = 0;
  /// Work units BoundedSld spent verifying (the sum of
  /// BoundedSldResult::work_units, in the units of SldWorkUnits). A
  /// token-pair-cache hit counts 1 unit, so with the cache on and more
  /// than one worker the total can differ between runs.
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
  /// Shuffle partition count of every job of the run:
  /// TsjOptions::mapreduce.num_partitions.
  uint64_t shuffle_partitions = 0;
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
  ///
  /// Runs SelfJoin's pipeline over one Corpus that holds r_corpus's
  /// strings and then p_corpus's (copied in one serial pass), pairing a
  /// token's strings only across that boundary. It uses no token-pair
  /// cache, so the run reports zero token_pair_cache_* counters.
  StatusOr<std::vector<TsjPair>> Join(const Corpus& r_corpus,
                                      const Corpus& p_corpus,
                                      TsjRunInfo* info = nullptr) const;

  const TsjOptions& options() const { return options_; }

 private:
  TsjOptions options_;
};

}  // namespace tsj

#endif  // TSJ_TSJ_TSJ_H_
