// Configuration of the Tokenized-String Joiner (Sec. III).

#ifndef TSJ_TSJ_OPTIONS_H_
#define TSJ_TSJ_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "mapreduce/mapreduce.h"
#include "tokenized/sld.h"

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
/// (T = 0.1, M = 1,000; Sec. V). The lossless filters (Sec. III-E) and the
/// budgeted token-id verification (Sec. III-F) have no switch: every run
/// applies them, verifying each candidate's token bigraph on its own
/// (tsj/tsj.h). enable_shuffle_spill is the one on/off switch.
struct TsjOptions {
  /// NSLD threshold T: pairs with NSLD <= threshold are joined.
  double threshold = 0.1;

  /// High-frequency-token cutoff M (Sec. III-G.2): tokens contained in
  /// more than this many tokenized strings are ignored by candidate
  /// generation (both passes). Every copy of a name counts, although the
  /// join generates each distinct token sequence once (tsj/tsj.h).
  uint32_t max_token_frequency = 1000;

  /// Candidate-generation mode (fuzzy vs. exact-token-matching).
  TokenMatching matching = TokenMatching::kFuzzy;

  /// Verification alignment (exact Hungarian vs. greedy-token-aligning,
  /// Sec. III-G.5).
  TokenAligning aligning = TokenAligning::kExact;

  /// Dedup strategy for candidate pairs.
  DedupStrategy dedup = DedupStrategy::kGroupOnOneString;

  /// External-memory shuffle spill (mapreduce/spill.h): when enabled AND
  /// mapreduce.memory_budget_records is set, the fused pipeline's jobs
  /// keep at most that many shuffle records resident, flushing
  /// over-budget partition buckets to disk as sorted runs and driving the
  /// dedup/verify reducers from a k-way sort-merge of the runs — so
  /// corpora whose candidate shuffle outgrows RAM still join. Lossless:
  /// byte-identical pairs, NSLD values and candidate/filter counters (the
  /// spill-forced differential sweep pins it). Off by default: the budget
  /// in mapreduce options is ignored unless this is set (the
  /// CC_SHUFFLE_SPILL_BUDGET test-tier override bypasses this gate by
  /// design — see mapreduce.h). Lossy spill faults (a failed run read
  /// aborted a merge; output may be incomplete) surface as the join's
  /// error Status; degraded write faults keep their complete in-memory
  /// results and are reported via the per-job JobStats::spill_status
  /// only. TsjRunInfo::pipeline reports the spill counters
  /// (PipelineStats::total_spilled_records() and its siblings) and
  /// max_peak_resident_records(), the gauge that proves the budget held.
  bool enable_shuffle_spill = false;

  /// MapReduce engine configuration shared by all pipeline jobs, the
  /// MassJoin sub-pipeline included: every job shuffles into
  /// mapreduce.num_partitions partitions (TsjRunInfo::shuffle_partitions).
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
