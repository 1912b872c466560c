// Per-job execution statistics collected by the MapReduce engine.

#ifndef TSJ_MAPREDUCE_JOB_STATS_H_
#define TSJ_MAPREDUCE_JOB_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tsj {

/// High-water-mark gauge of records resident in shuffle buffers (map-side
/// emitter buckets, merged partitions, grouping buffers, and — when a
/// pipeline threads one gauge through several jobs — the intermediate
/// record vectors between jobs). The engines Add/Sub at task granularity,
/// so `peak()` is accurate to within one task's output. Thread-safe.
class ShuffleGauge {
 public:
  void Add(uint64_t n) {
    const uint64_t now =
        current_.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void Sub(uint64_t n) { current_.fetch_sub(n, std::memory_order_relaxed); }

  uint64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
};

/// Statistics for a single MapReduce job execution.
struct JobStats {
  std::string name;

  // Record counts.
  uint64_t input_records = 0;
  uint64_t map_output_records = 0;
  uint64_t num_groups = 0;
  uint64_t reduce_output_records = 0;

  // Measured wall time of the in-process execution, per phase.
  double map_wall_seconds = 0;
  double shuffle_wall_seconds = 0;
  double reduce_wall_seconds = 0;

  /// Records that entered this job's shuffle (scattered into partition
  /// buckets), every emitted record: the engine pre-aggregates nothing.
  /// Equals map_output_records for plain jobs; for the second stage of a
  /// fused job it additionally counts the records the first stage's
  /// reduce emitted directly into the shuffle.
  uint64_t shuffle_records = 0;
  /// High-water mark of records resident in this job's shuffle buffers
  /// (ShuffleGauge), tracked at task granularity. The two stages of a
  /// fused job share one gauge and report the same peak.
  uint64_t peak_shuffle_records = 0;

  // External-memory spill (mapreduce/spill.h; active when the job ran
  // under a MapReduceOptions::memory_budget_records policy or the
  // CC_SHUFFLE_SPILL_BUDGET test override).
  /// Records written to disk as sorted runs.
  uint64_t spilled_records = 0;
  /// Run files written (flush runs plus hierarchical pre-merge outputs).
  uint64_t spill_files = 0;
  /// Bytes written to spill files (post block compression, headers and
  /// framing included — the bytes that actually hit disk).
  uint64_t spill_bytes = 0;
  /// Serialized record bytes before block compression — the compression
  /// baseline: spill_raw_bytes / spill_bytes is the spill compression
  /// ratio.
  uint64_t spill_raw_bytes = 0;
  /// Sort-merge passes: one per spilled partition's final streamed merge,
  /// plus one per hierarchical pre-merge pass a partition needed because
  /// it had more runs than the merge fan-in.
  uint64_t merge_passes = 0;
  /// Peak records resident in memory across the shuffle path. Under a
  /// spill budget this is the gauge that proves the budget is honored
  /// (slack: one active merge window per concurrent reduce worker, the
  /// one-record flush-trigger overshoot per producer, and the emitters'
  /// batched residency publishing — producers sync the shared gauge every
  /// kSpillResidentPublishBatch records rather than per emit); without spill
  /// every shuffled record is resident, so this equals
  /// peak_shuffle_records.
  uint64_t peak_resident_records = 0;
  /// First spill I/O error of any kind (OK when spilling never failed or
  /// never ran). A failed spill *write* leaves the records in memory —
  /// results stay complete, only the budget may be exceeded (degraded,
  /// reported here only); a failed *read* aborts that partition's merge,
  /// so outputs may be incomplete (lossy, additionally reported in
  /// spill_data_loss). The job always finishes; nothing is lost silently.
  Status spill_status;
  /// First *lossy* spill fault — non-OK exactly when this job's outputs
  /// may be incomplete. This is the status pipelines must check and
  /// propagate as their own error (the joins do); degraded write faults
  /// deliberately do not fail results that are still complete and
  /// correct.
  Status spill_data_loss;
  /// v2 spill frames whose checksum did not match on read (each also
  /// surfaces as a lossy fault in spill_data_loss — this counter exists
  /// so observability can tell payload corruption from torn frames).
  uint64_t checksum_failures = 0;

  // Task-level fault tolerance (see the fault-tolerance contract in
  // mapreduce.h).
  /// Task attempts that failed with any non-OK Status (before retry
  /// accounting: a task that fails twice and then succeeds contributes 2).
  uint64_t task_failures = 0;
  /// Re-executions performed after a retryable failure (each retry is a
  /// deterministic, lossless re-run of the same task on the same input).
  uint64_t task_retries = 0;
  /// Tasks skipped because a sibling's fatal failure tripped the job's
  /// cancellation token before they started.
  uint64_t tasks_cancelled = 0;
  /// First fatal task error: non-OK exactly when the job was aborted and
  /// its outputs are incomplete/absent. Retryable failures that a retry
  /// absorbed do NOT set this — they are visible only via task_failures /
  /// task_retries. Pipelines must check and propagate this the same way
  /// they do spill_data_loss.
  Status status;

  double total_wall_seconds() const {
    return map_wall_seconds + shuffle_wall_seconds + reduce_wall_seconds;
  }
};

/// Statistics of a multi-job pipeline (e.g. one full TSJ run).
struct PipelineStats {
  std::vector<JobStats> jobs;

  void Add(JobStats stats) { jobs.push_back(std::move(stats)); }

  void Append(const PipelineStats& other) {
    jobs.insert(jobs.end(), other.jobs.begin(), other.jobs.end());
  }

  double total_wall_seconds() const {
    double total = 0;
    for (const auto& j : jobs) total += j.total_wall_seconds();
    return total;
  }

  uint64_t total_map_output_records() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.map_output_records;
    return total;
  }

  uint64_t total_shuffle_records() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.shuffle_records;
    return total;
  }

  /// Largest per-job shuffle high-water mark. A pipeline that threads one
  /// ShuffleGauge through all of its jobs (e.g. TsjRunInfo) reports a
  /// pipeline-wide peak instead, which additionally covers the record
  /// vectors living *between* jobs.
  uint64_t max_peak_shuffle_records() const {
    uint64_t peak = 0;
    for (const auto& j : jobs) {
      peak = std::max(peak, j.peak_shuffle_records);
    }
    return peak;
  }

  uint64_t total_spilled_records() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.spilled_records;
    return total;
  }

  uint64_t total_spill_files() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.spill_files;
    return total;
  }

  uint64_t total_spill_bytes() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.spill_bytes;
    return total;
  }

  uint64_t total_spill_raw_bytes() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.spill_raw_bytes;
    return total;
  }

  uint64_t total_merge_passes() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.merge_passes;
    return total;
  }

  uint64_t total_checksum_failures() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.checksum_failures;
    return total;
  }

  uint64_t max_peak_resident_records() const {
    uint64_t peak = 0;
    for (const auto& j : jobs) {
      peak = std::max(peak, j.peak_resident_records);
    }
    return peak;
  }

  /// First non-OK JobStats::spill_status across the pipeline (jobs run in
  /// order, so the first job's fault is the root cause). Observability:
  /// non-OK for degraded write faults too, whose results are complete.
  Status first_spill_error() const {
    for (const auto& j : jobs) {
      if (!j.spill_status.ok()) return j.spill_status;
    }
    return Status::OK();
  }

  /// First non-OK JobStats::spill_data_loss — the fault class that must
  /// fail the pipeline's result (outputs may be incomplete).
  Status first_spill_data_loss() const {
    for (const auto& j : jobs) {
      if (!j.spill_data_loss.ok()) return j.spill_data_loss;
    }
    return Status::OK();
  }

  /// First non-OK JobStats::status — a fatal task error that aborted a
  /// job, making the pipeline's result incomplete. Like
  /// first_spill_data_loss(), this must fail the pipeline.
  Status first_task_error() const {
    for (const auto& j : jobs) {
      if (!j.status.ok()) return j.status;
    }
    return Status::OK();
  }

  /// The pipeline's result Status, the one failure rule of every join
  /// (TSJ, HMJ and MassJoin): a lossy spill fault first
  /// (first_spill_data_loss(): a failed run read aborted a merge, records
  /// may be missing), then a fatal task error (first_task_error(): a job
  /// aborted, outputs incomplete); OK otherwise. Degraded spill write
  /// faults keep their complete in-memory results and retry-absorbed task
  /// failures re-ran losslessly, so neither fails the join; they stay
  /// visible through JobStats::spill_status and the task counters (see the
  /// fault contract in mapreduce.h).
  Status failure() const {
    if (Status s = first_spill_data_loss(); !s.ok()) return s;
    return first_task_error();
  }

  uint64_t total_task_failures() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.task_failures;
    return total;
  }

  uint64_t total_task_retries() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.task_retries;
    return total;
  }

  uint64_t total_tasks_cancelled() const {
    uint64_t total = 0;
    for (const auto& j : jobs) total += j.tasks_cancelled;
    return total;
  }

  /// Always 0; read by perfbench/; delete at the next benchmark change
  /// (ROADMAP item 5).
  uint64_t total_combiner_input_records() const { return 0; }
  uint64_t total_combiner_output_records() const { return 0; }
  uint64_t total_prefetch_hits() const { return 0; }
};

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_JOB_STATS_H_
