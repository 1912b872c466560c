// Tokenized-String Joiner (TSJ), the paper's core framework (Sec. III):
// a generate-filter-verify NSLD self-join executed as a MapReduce pipeline.
//
//   classes:  strings with identical token-id sequences (within one side
//             in an R x P run) form a class, and generation, dedup and
//             verification run over each class's smallest id only. A
//             verified pair of these representatives stands for every
//             pair of their two classes, at the same NSLD; the copies
//             within a class join each other at NSLD 0 iff the class holds
//             a token that survives M. Classes key on the ordered
//             sequence, since greedy aligning's cost depends on token
//             order (though not on which string comes first). Token
//             frequencies and M count every string; token-free strings
//             join on their own direct path;
//   generate: shared-token candidates (one reduce group per token,
//             Sec. III-C) plus similar-token candidates through a MassJoin
//             NLD-join over the token space (Sec. III-D, justified by
//             Theorem 3). MassJoin sees only the surviving tokens that can
//             have a partner with a different text (a token of length l
//             is at NLD >= 1/(l+1) from every other text,
//             MinNldToDifferentString), and only the tokens of a similar
//             pair get a posting list (token -> representatives containing
//             it) to expand it through;
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
//             edge kernel, no per-candidate materialization — and
//             verifies each candidate's bigraph on its own, as HMJ does.
//             Candidates of one reduce group verify in aggregate-length
//             order so the DP scratch stays resident. The filters and the
//             budgeted token-id verify have no switch: the brute-force
//             differentials pin them against the unfiltered, unbounded
//             oracle.
//
// Both join forms run this one pipeline over one Corpus. The general
// R x P join (Sec. II-B) copies R's strings and then P's into one corpus
// and marks the boundary between them; pair enumeration then crosses a
// token's R strings with its P strings instead of pairing all of them.
// Copy classes stay within one side, so no pair within a class is a
// result; nothing else differs.
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
/// count pairs of representatives, one string per distinct token sequence
/// (the file comment's classes): the work the pipeline does. result_pairs
/// counts the output, every pair of the classes a verified pair stands for
/// and the copies within a class included. The candidate and filter
/// counters are kept in one slot per worker of the fused job and summed
/// once the job ends: no candidate touches a counter another worker
/// writes. They count the same at every worker and partition count. At 1
/// worker every counter of the run repeats from run to run,
/// peak_shuffle_records included.
struct TsjRunInfo {
  /// Per-job MapReduce statistics, in execution order. The run's spill and
  /// task counters are its totals (PipelineStats::total_spilled_records(),
  /// max_peak_resident_records(), total_task_retries(), ...). A join that
  /// fails in MassJoin holds MassJoin's two jobs only.
  PipelineStats pipeline;

  /// Distinct tokens ignored because they occur in more than M strings.
  uint64_t dropped_tokens = 0;
  /// Strings whose token-id sequence an earlier string of the same side
  /// already holds: the corpus's string count minus its classes of
  /// identical sequences (per side in an R x P run). Token-free strings
  /// count like any other, though they always join on their own path.
  uint64_t duplicate_strings = 0;
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
  /// BoundedSldResult::work_units, in the units of SldWorkUnits).
  uint64_t verify_work_units = 0;
  /// Always 0; read by perfbench/; delete at the next benchmark change
  /// (ROADMAP item 5).
  uint64_t token_pair_cache_l1_hits = 0;
  uint64_t token_pair_cache_l1_misses = 0;
  uint64_t token_pair_cache_hits = 0;
  uint64_t token_pair_cache_misses = 0;
  uint64_t token_pair_cache_flush_batches = 0;
  uint64_t batched_verify_calls = 0;
  uint64_t batched_verify_lanes_filled = 0;
  uint64_t batched_verify_lane_slots = 0;
  /// Shuffle partition count of every job of the run:
  /// TsjOptions::mapreduce.num_partitions.
  uint64_t shuffle_partitions = 0;
  /// Pairs in the final result, each pair of strings counted once: the
  /// pairs verified representatives expand to, the copies within a class,
  /// and the token-free strings' pairs.
  uint64_t result_pairs = 0;
  /// Pipeline-wide high-water mark of shuffle-resident records: the
  /// larger of MassJoin's job peak and the fused job's peak plus the
  /// similar-token side input it holds throughout. Each job's gauge
  /// samples what its running tasks hold at once, so above 1 worker the
  /// peak follows task scheduling and moves from run to run; at 1 worker
  /// it repeats.
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
  /// token's strings only across that boundary.
  StatusOr<std::vector<TsjPair>> Join(const Corpus& r_corpus,
                                      const Corpus& p_corpus,
                                      TsjRunInfo* info = nullptr) const;

  const TsjOptions& options() const { return options_; }

 private:
  TsjOptions options_;
};

}  // namespace tsj

#endif  // TSJ_TSJ_TSJ_H_
