// Hybrid Metric Joiner (HMJ): the metric-space join baseline of Sec. V-E,
// an in-house hybrid of the most scalable distributed metric-join
// algorithms — ClusterJoin (Sarma, He & Chaudhuri [53]) and MR-MAPSS
// (Wang, Metwally & Parthasarathy [68]).
//
// Plan (one MapReduce partitioning job + one dedup job):
//  * k pivot strings are sampled; every record computes its NSLD to all
//    pivots (the dominant map-side cost, exactly as in ClusterJoin);
//  * each record is assigned to its nearest pivot's partition (home) and,
//    per the general window filter of [53], to every partition whose pivot
//    is within d_home + 2T — which guarantees every T-similar pair
//    co-locates in at least one partition with one endpoint at home;
//  * each partition joins home x home and home x window (window x window
//    pairs are skipped, the symmetry optimization of [68]); candidate
//    pairs are pruned by the pivot triangle inequality
//    |d(u, pivot) - d(v, pivot)| > T before any NSLD is computed;
//  * oversized partitions are recursively repartitioned with sub-pivots
//    ([68]); a 2-D-grid alternative is unnecessary at our scales;
//  * a final job dedups pairs discovered in several partitions.
//
// The paper reports HMJ "did not finish on 100 machines in a reasonable
// amount of time"; HmjOptions::work_limit reproduces that behaviour: a run
// that exceeds the distance-computation budget aborts with completed=false
// (reported as DNF by the Fig. 7 harness).

#ifndef TSJ_HMJ_HMJ_H_
#define TSJ_HMJ_HMJ_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_stats.h"
#include "tokenized/corpus.h"
#include "tsj/tsj.h"

namespace tsj {

/// HMJ configuration.
struct HmjOptions {
  /// NSLD threshold T.
  double threshold = 0.1;
  /// Number of top-level Voronoi partitions (pivots).
  size_t num_partitions = 64;
  /// Partitions larger than this are recursively repartitioned.
  size_t max_partition_size = 512;
  /// Number of sub-pivots per recursive repartitioning.
  size_t num_subpartitions = 8;
  /// Maximum recursion depth (beyond it, partitions join quadratically).
  size_t max_recursion_depth = 4;
  /// Pivot-sampling seed.
  uint64_t seed = 42;
  /// Budget of NSLD evaluations; 0 = unlimited. Exceeding it aborts the
  /// run (HmjRunInfo::completed = false), modelling the paper's DNF. A
  /// nonzero limit turns checkpointing off (see enable_checkpointing).
  uint64_t work_limit = 0;
  /// Verification alignment mode (kept exact to match the NSLD metric).
  TokenAligning aligning = TokenAligning::kExact;
  /// MapReduce engine configuration.
  MapReduceOptions mapreduce;
  /// External-memory shuffle spill (mapreduce/spill.h): when enabled AND
  /// mapreduce.memory_budget_records is set, the partition-join and dedup
  /// jobs bound their resident shuffle records by the budget, spilling
  /// over-budget buckets as sorted runs and merging them back at reduce
  /// time. Lossless. Off by default (the budget is then ignored); lossy
  /// spill faults (failed run reads) surface as the join's error Status,
  /// degraded write faults via JobStats::spill_status only.
  bool enable_shuffle_spill = false;
  /// Checkpoint/restart (mapreduce.h "Checkpoint validity"; same
  /// semantics as TsjOptions::enable_checkpointing): when enabled AND
  /// mapreduce.checkpoint_dir is set, the partition-join and dedup jobs
  /// seal completed map tasks under that directory and a restarted run
  /// over the same corpus skips tasks whose checkpoint validates. A zero
  /// mapreduce.checkpoint_fingerprint is derived from the corpus
  /// statistics and join parameters. Off by default: the engine-level
  /// dir is stripped unless this is set. A run with work_limit > 0 never
  /// seals or restores checkpoints (its dir is stripped as well): an
  /// aborted run's map tasks stop early, and their truncated outputs
  /// must not be restored by a later run.
  bool enable_checkpointing = false;
  /// Skew-adaptive shuffle partitioning (mapreduce/cluster_model.h):
  /// each job plans its partition count from its key profile — the
  /// partition-join from the pivot count (one reduce key per Voronoi
  /// partition, near-uniform by construction), the dedup job from its
  /// pair-key count — instead of the fixed mapreduce.num_partitions knob
  /// (which remains the fallback/off value). Lossless: results are
  /// partition-count-invariant.
  bool adaptive_partitions = true;

  Status Validate() const {
    // Written so that NaN, for which every comparison is false, fails.
    if (!(threshold >= 0.0 && threshold < 1.0)) {
      return Status::InvalidArgument("threshold must satisfy 0 <= T < 1");
    }
    if (num_partitions == 0) {
      return Status::InvalidArgument("num_partitions must be positive");
    }
    return Status::OK();
  }
};

/// Counters and per-job statistics of one HMJ run.
struct HmjRunInfo {
  PipelineStats pipeline;
  /// NSLD evaluations performed (partitioning + verification).
  uint64_t distance_computations = 0;
  /// Candidate pairs skipped by the pivot triangle-inequality filter.
  uint64_t pivot_filtered = 0;
  /// Total partition-assignment records (home + window replicas).
  uint64_t assignments = 0;
  /// Always 0; read by perfbench/; delete at the next benchmark change
  /// (ROADMAP item 6).
  uint64_t batched_verify_calls = 0;
  uint64_t batched_verify_lanes_filled = 0;
  uint64_t batched_verify_lane_slots = 0;
  /// Task-level fault-tolerance counters summed across the run's jobs
  /// (same semantics as the TsjRunInfo fields of the same names; see the
  /// fault contract in mapreduce.h).
  uint64_t task_failures = 0;
  uint64_t task_retries = 0;
  uint64_t tasks_cancelled = 0;
  uint64_t tasks_degraded = 0;
  /// Checkpoint/restart and hedged-execution counters summed across the
  /// run's jobs (same semantics as the TsjRunInfo fields of the same
  /// names; see the checkpoint and hedge contracts in mapreduce.h).
  uint64_t tasks_checkpointed = 0;
  uint64_t tasks_skipped_by_checkpoint = 0;
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;
  /// False when the work_limit was exceeded (DNF).
  bool completed = true;
};

/// The joiner. Produces the same pair set as an exact NSLD self-join
/// (tested against brute force and against TSJ).
class HybridMetricJoiner {
 public:
  explicit HybridMetricJoiner(HmjOptions options) : options_(options) {}

  /// Self-joins `corpus`: all pairs of distinct string ids with
  /// NSLD <= threshold; duplicate-free, a < b, unspecified order.
  StatusOr<std::vector<TsjPair>> SelfJoin(const Corpus& corpus,
                                          HmjRunInfo* info = nullptr) const;

  const HmjOptions& options() const { return options_; }

 private:
  HmjOptions options_;
};

}  // namespace tsj

#endif  // TSJ_HMJ_HMJ_H_
