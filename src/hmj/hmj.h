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
// Every distance runs on the corpus's interned token ids (the token-id
// BoundedSld of tokenized/sld.h), with no materialized strings: a
// partitioning distance at budget L(a) + L(b), which never binds and so
// yields the exact NSLD, and a leaf verification at the threshold's SLD
// budget. Both align tokens exactly (TokenAligning::kExact): the window
// and pivot filters rely on the triangle inequality, and NSLD is a metric
// only under exact aligning (Theorem 2, tokenized/sld.h), so greedy
// aligning could drop pairs that join.
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
  /// Number of sub-pivots per recursive repartitioning; at least 1.
  size_t num_subpartitions = 8;
  /// Maximum recursion depth (beyond it, partitions join quadratically).
  size_t max_recursion_depth = 4;
  /// Pivot-sampling seed.
  uint64_t seed = 42;
  /// Budget of NSLD evaluations; 0 = unlimited. Exceeding it aborts the
  /// run (HmjRunInfo::completed = false), modelling the paper's DNF. Each
  /// worker charges its evaluations to the limit and checks it where the
  /// run polls — once per map record, per member of a repartitioned
  /// partition and per leaf row — so a worker can overshoot by the
  /// evaluations between two polls; `completed` compares the exact total
  /// with the limit.
  uint64_t work_limit = 0;
  /// MapReduce engine configuration. Both jobs shuffle into
  /// mapreduce.num_partitions partitions, whatever the pivot count above.
  /// A set mapreduce.memory_budget_records bounds both jobs' resident
  /// shuffle records (mapreduce/spill.h): over-budget buckets spill as
  /// sorted runs and merge back at reduce time. Lossless; lossy spill
  /// faults (failed run reads) surface as the join's error Status,
  /// degraded write faults via JobStats::spill_status only.
  MapReduceOptions mapreduce;

  Status Validate() const {
    // Written so that NaN, for which every comparison is false, fails.
    if (!(threshold >= 0.0 && threshold < 1.0)) {
      return Status::InvalidArgument("threshold must satisfy 0 <= T < 1");
    }
    if (num_partitions == 0) {
      return Status::InvalidArgument("num_partitions must be positive");
    }
    if (num_subpartitions == 0) {
      return Status::InvalidArgument("num_subpartitions must be positive");
    }
    return Status::OK();
  }
};

/// Counters and per-job statistics of one HMJ run. Each worker counts in a
/// slot of its own (common/worker_slots.h) and the run sums the slots once
/// its jobs are done, so the counts are exact and the same at every worker
/// count. A retried task counts its work again.
struct HmjRunInfo {
  /// Per-job MapReduce statistics (partition join, then dedup); the run's
  /// spill and task counters are their totals.
  PipelineStats pipeline;
  /// NSLD evaluations performed (partitioning + verification).
  uint64_t distance_computations = 0;
  /// Candidate pairs skipped by the pivot triangle-inequality filter.
  uint64_t pivot_filtered = 0;
  /// Partition-assignment records (home + window replicas) at every
  /// level: the top-level partitions and the sub-partitions of recursive
  /// repartitioning. So assignments per record (perfbench's
  /// hmj.replication) exceeds the top-level replication whenever a
  /// partition is repartitioned.
  uint64_t assignments = 0;
  /// Always 0; read by perfbench/; delete at the next benchmark change
  /// (ROADMAP item 5).
  uint64_t batched_verify_calls = 0;
  uint64_t batched_verify_lanes_filled = 0;
  uint64_t batched_verify_lane_slots = 0;
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
