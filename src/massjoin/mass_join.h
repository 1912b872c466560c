// MassJoin: a MapReduce-distributed string similarity join (Deng, Li, Hao,
// Wang & Feng [19]), adapted from LD thresholds to NLD thresholds via
// Lemmas 8 and 9, exactly as TSJ requires (Sec. III-D). Its signatures
// are Pass-Join's even partitions and multi-match-aware substrings
// (massjoin/partition.h).
//
// Job 1 (candidate generation) — each token plays two roles:
//  * segment role (token as the shorter side): for every feasible longer
//    length ly up to the longest input token, the token is partitioned
//    into MaxLdForNld(T, ly)+1 even segments; each segment is emitted
//    keyed by (ly, |token|, segment index, chunk text);
//  * substring role (token as the longer side): for every feasible shorter
//    length lx down to the shortest input token, the multi-match-aware
//    selection enumerates the substrings that could match a segment of an
//    lx-length string, emitted under the same key shape. An empty segment
//    selects the same empty chunk at every start, so it is emitted once.
// The reducer pairs segment-role tokens with substring-role tokens sharing
// a key, emitting candidate token-id pairs.
//
// Job 2 (dedup + verify) — candidates are grouped by normalized pair id so
// each distinct pair is verified exactly once with the banded Levenshtein
// under the Lemma 8 budget.
//
// Both jobs record JobStats, so TSJ's pipeline statistics cover the token
// join too. Tests check the result against brute-force NLD.

#ifndef TSJ_MASSJOIN_MASS_JOIN_H_
#define TSJ_MASSJOIN_MASS_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_stats.h"
#include "mapreduce/mapreduce.h"

namespace tsj {

/// MassJoin configuration.
struct MassJoinOptions {
  /// Engine options used by both jobs; both shuffle into
  /// mapreduce.num_partitions partitions. A set
  /// mapreduce.memory_budget_records bounds the fused generate/verify
  /// job's resident shuffle records (mapreduce/spill.h: sorted runs on
  /// disk, k-way merge at reduce time). Lossless; a failed run read fails
  /// the join (see RunMassJoinSelfNld).
  MapReduceOptions mapreduce;
};

/// A verified NLD-similar pair; `a` and `b` are indices into the input
/// vector with a < b; `ld` is the exact edit distance.
struct NldPair {
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t ld = 0;
  double nld = 0.0;
};

/// Self-joins `tokens` under NLD <= threshold with the two-job MapReduce
/// plan described above. Returns duplicate-free pairs (a < b); the jobs'
/// statistics are appended to `stats` if non-null, also when a job fails.
///
/// Same fault contract as TokenizedStringJoiner::SelfJoin and
/// HybridMetricJoiner::SelfJoin: a lossy spill fault (failed run read —
/// outputs may be incomplete) or a fatal task error (a job aborted; see
/// the fault-tolerance contract in mapreduce.h) fails the join with the
/// root-cause Status; degraded write faults and retry-absorbed task
/// failures keep their complete results and surface only through `stats`
/// (JobStats::spill_status and the task counters). A threshold outside
/// [0, 1), NaN included, returns InvalidArgument before any job runs.
StatusOr<std::vector<NldPair>> RunMassJoinSelfNld(
    const std::vector<std::string>& tokens, double threshold,
    const MassJoinOptions& options = {}, PipelineStats* stats = nullptr);

}  // namespace tsj

#endif  // TSJ_MASSJOIN_MASS_JOIN_H_
