// In-process MapReduce engine (Sec. III-A of the paper).
//
// The engine expresses computations as the classic pair of functions
//   map:    <key1, value1>        -> [<key2, value2>]
//   reduce: <key2, [value2]>      -> [value3]
// and executes them on a thread pool with a shuffle in between, i.e. a
// faithful shared-nothing simulation running in one address space. The
// shuffle streams and sorts: map tasks emit through a PartitionedEmitter
// that scatters records into per-partition buckets at emit time, each
// partition is grouped by stable-sorting its records by key, and the
// reducer runs over contiguous key runs exposed as std::spans of a single
// reused buffer — no per-key vector<Value>, no grouping hash map. Key must be equality- and
// less-than-comparable and hashable by StableHash; within one run, values
// keep (map task, emission) order.
//
// RunMapReduceSorted runs one such job. Every emitted record reaches its
// reducer, in memory and spilled alike: the engine pre-aggregates
// nothing, so a reducer that needs one record per key drops the
// duplicates itself (MassJoin's verify reducer and HMJ's dedup reducer
// read only the key of their run).
//
// RunFusedMapReduceSorted chains two stages without materializing the
// intermediate record vector between them: stage 1's reduce emits
// (key2, value2) records straight into stage 2's partition-at-emit
// shuffle (plus an optional stage-2 side input mapped into the same
// shuffle), so the peak number of shuffle-resident records is bounded by
// one stage's records instead of the sum of both. TSJ's candidate-
// generation → dedup/verify pipeline (tsj/tsj.cc) and MassJoin's
// generate → verify pipeline (massjoin/mass_join.cc) run on it; both
// drop duplicate candidates in their stage-2 reducers.
//
// Spill / merge contract (external memory; mapreduce/spill.h). A job
// optionally runs under MapReduceOptions::memory_budget_records — a bound
// on shuffle records resident in memory (or the test-tier
// CC_SHUFFLE_SPILL_BUDGET environment override). Mechanics:
//
//  * When buckets flush: each producer holds an even share of the budget
//    (budget / producers; the fused runner first halves the budget
//    between its two stages, whose producers are live simultaneously).
//    Whenever a producer's resident records exceed its share, it flushes
//    to disk: one flush stable-sorts EVERY non-empty bucket and writes
//    them all as one segment file — one sorted run per bucket, each kept
//    in memory as its byte extent (SpillRunRef) — so the file count is
//    bounded by the flush count, not bucket x flush.
//  * Merge: at reduce time each partition streams through a k-way
//    sort-merge of every producer's runs (flush order) and in-memory
//    residue (one hierarchical pre-merge pass collapses a producer's
//    excess runs first; passes are counted in JobStats::merge_passes).
//    Ties break toward the earlier source, so values keep exactly the
//    (producer, emission) order of the in-memory shuffle.
//  * Span stability: the reducer still receives each key's values as ONE
//    contiguous mutable std::span — even when the run was split across
//    several spill files — backed by a buffer that is reused across runs
//    but stable (and reorderable in place) for the duration of that
//    reduce call, the same guarantee as the in-memory shuffle.
//  * Residency: only producer buckets within their shares plus the active
//    merge windows are ever in memory; JobStats::peak_resident_records
//    (a gauge producers and merges publish in small batches — see
//    kSpillResidentPublishBatch in spill.h) proves the budget held.
//    I/O faults surface as JobStats::spill_status (see spill.h) — a
//    failed write keeps records in memory, a failed read marks the job;
//    nothing is lost silently.
//
// Fault-tolerance contract (task retry, cancellation, fault injection).
// Every engine phase runs its logical tasks through a retry/cancellation
// wrapper (mapreduce_internal::RunTasksWithRetry) with these rules:
//
//  * Retryable vs fatal taxonomy. A task attempt that fails with
//    StatusCode::kUnavailable (transient/injected faults) or
//    kResourceExhausted (memory pressure, disk full) is RETRYABLE; every
//    other code — kInternal (logic errors, thrown exceptions), data loss,
//    kInvalidArgument, … — is FATAL. Thrown exceptions are caught at the
//    task boundary and converted (std::bad_alloc -> kResourceExhausted,
//    std::exception -> kInternal), so no task failure can terminate the
//    process.
//  * Retry determinism. A retryable failure re-executes the task up to
//    MapReduceOptions::max_task_retries times on the SAME input slice
//    with freshly reset task state (map tasks rebuild their emitter from
//    scratch via PartitionedEmitter::Abandon), so a retried run is
//    byte-identical to a fault-free run — retry is lossless. Phases that
//    consume shared buffers destructively (scatter/shuffle concatenation,
//    reduce merges) cannot reset mid-task state, so only *start* faults
//    (fired before the task touched anything, e.g. FAULT_POINT at task
//    start) are retried there; a mid-task failure is escalated to fatal.
//  * Cancellation points. A fatal failure (or a retryable one that
//    exhausted its retries) trips the job's CancellationToken with the
//    root-cause Status. Sibling tasks poll the token at task start —
//    their partition boundary — and bail without running; a running map
//    task also polls it between input records and stops at its next
//    record; later phases are skipped entirely. The job then returns
//    empty outputs with JobStats::status carrying the root cause (the
//    first fatal error wins). Skipped tasks count into
//    JobStats::tasks_cancelled, failed attempts into task_failures,
//    re-executions into task_retries.
//  * Fault injection. The deterministic injector (common/fault.h,
//    CC_FAULT_SPEC) is evaluated at named sites: "task.map" /
//    "task.reduce" at task starts, "alloc.shuffle" at shuffle-phase task
//    starts (fires kResourceExhausted), and "spill.open" / "spill.write"
//    / "merge.read" inside every spill I/O stream (SpillContext::NewIo
//    wraps both the default FILE* io and any test-installed
//    spill_io_factory, so engine and spill faults share one harness).
//    Injected spill faults follow the spill contract above (write =>
//    degraded, read => lossy); injected task faults follow the retry
//    rules. Task-start sites are evaluated with FAULT_POINT_AT keyed by
//    (task, attempt) — attempt 0 of task t is index t+1, retries map
//    into disjoint per-task blocks above n — so a CC_FAULT_SPEC schedule
//    replays exactly even when a retried task re-evaluates its site
//    while its siblings run. One caveat: spill observability counters
//    (spilled_records, spill_files, …) count ALL attempts, including
//    runs an abandoned retry released — they are I/O meters, not result
//    accounting.

#ifndef TSJ_MAPREDUCE_MAPREDUCE_H_
#define TSJ_MAPREDUCE_MAPREDUCE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/job_stats.h"
#include "mapreduce/key_hash.h"
#include "mapreduce/spill.h"

namespace tsj {

/// Engine configuration.
struct MapReduceOptions {
  /// Number of OS threads executing logical tasks (0 = hardware
  /// concurrency).
  size_t num_workers = 0;
  /// Number of shuffle partitions (each is reduced as one unit of work).
  size_t num_partitions = 64;
  /// Optional pipeline-wide gauge (not owned): every Add/Sub the engine
  /// performs on its job-local gauge is mirrored here, so a multi-job
  /// pipeline can observe one peak across all of its jobs plus whatever
  /// intermediate vectors it adds manually (tsj/tsj.cc does).
  ShuffleGauge* shuffle_gauge = nullptr;

  /// External-memory spill budget (see the "Spill / merge contract"
  /// section of the file comment): the maximum number of shuffle records
  /// the job keeps resident in memory. 0 = unlimited (no spill) — unless
  /// the CC_SHUFFLE_SPILL_BUDGET environment variable is set, the
  /// test-tier override that lets CI force the spill path through every
  /// job in the process. When active, each
  /// producer flushes its over-budget partition buckets to `spill_dir` as
  /// sorted runs, and reducers are driven from a k-way sort-merge of runs
  /// instead of a materialized partition. Lossless: identical outputs,
  /// keys still arrive as one contiguous value span each.
  size_t memory_budget_records = 0;
  /// Directory for spill run files. Empty = a job-owned unique temp
  /// directory (created at job start, removed with its files at job end).
  std::string spill_dir;
  /// I/O seam for spill files; null = buffered FILE* (the default). Tests
  /// install fault-injecting wrappers here (tests/spill_test.cc).
  SpillIoFactory spill_io_factory;
  /// Maximum deterministic re-executions of one task after a retryable
  /// failure (see the fault-tolerance contract in the file comment).
  /// 0 disables retry: the first failure of any kind is fatal.
  size_t max_task_retries = 2;

  size_t effective_workers() const {
    if (num_workers > 0) return num_workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 4;
  }
};

/// Scatters emitted (key, value) records into per-partition buckets at
/// emit time — the streaming shuffle's map-side sink. One producer task
/// owns one PartitionedEmitter; buckets are later concatenated per
/// partition in producer order and sorted (RunMapReduceSorted), or — when
/// the engine enabled spilling — flushed to disk as sorted runs whenever
/// this producer's resident share of the job's memory budget overflows,
/// and merged back per partition at reduce time.
template <typename Key, typename Value>
class PartitionedEmitter {
 public:
  explicit PartitionedEmitter(size_t num_partitions)
      : buckets_(std::max<size_t>(1, num_partitions)) {}

  /// Arms the spill policy (engine-internal; see the file comment's spill
  /// contract). `share` is this producer's slice of the job budget: Emit
  /// flushes every bucket to disk once more than `share` records are
  /// resident.
  void EnableSpill(SpillContext* context, size_t share) {
    spill_ = context;
    spill_share_ = std::max<size_t>(1, share);
    spill_runs_.assign(buckets_.size(), {});
  }

  void Emit(Key key, Value value) {
    auto& bucket = buckets_[hasher_(key) % buckets_.size()];
    bucket.emplace_back(std::move(key), std::move(value));
    ++size_;
    if (spill_ != nullptr) {
      // Residency is published to the shared gauge in batches
      // (kSpillResidentPublishBatch, spill.h): the flush trigger runs on
      // the emitter-local size_, so the job-wide atomic is touched once
      // per batch (and at every flush / FinishSpill), not once per emit.
      if (++spill_unpublished_ >= kSpillResidentPublishBatch) {
        PublishResident();
      }
      if (size_ > spill_share_ && !spill_failed_) SpillAllBuckets();
    }
  }

  /// Stable-sorts every bucket by key — the order both the spilled runs
  /// and the in-memory residue must present to the reduce-time merge.
  /// Engine-internal, called once per producer after it stops emitting
  /// (only meaningful with spilling enabled).
  void FinishSpill() {
    if (spill_ == nullptr) return;
    PublishResident();
    for (size_t p = 0; p < buckets_.size(); ++p) SortBucket(p);
  }

  /// Resets the emitter to its fresh post-EnableSpill state so the owning
  /// task can be re-executed from scratch after a retryable failure (see
  /// the fault-tolerance contract in the file comment): drops every
  /// buffered record, returns this emitter's residency to the spill
  /// gauge, releases every spill run the abandoned attempt wrote (their
  /// files are deleted once unreferenced) and clears the spill-failed
  /// latch. The spill context's byte/file meters keep counting abandoned
  /// runs — they are I/O meters, not result accounting.
  void Abandon() {
    if (spill_ != nullptr) {
      PublishResident();
      spill_->resident().Sub(size_);
      for (auto& runs : spill_runs_) {
        for (const SpillRunRef& ref : runs) spill_->ReleaseRun(ref.path);
        runs.clear();
      }
      spill_failed_ = false;
    }
    for (auto& bucket : buckets_) {
      bucket.clear();
      bucket.shrink_to_fit();
    }
    size_ = 0;
    spilled_records_ = 0;
  }

  /// Total records currently held in memory (spilled records are not
  /// counted — see spilled_records()).
  size_t size() const { return size_; }
  size_t num_partitions() const { return buckets_.size(); }
  std::vector<std::pair<Key, Value>>& bucket(size_t p) {
    return buckets_[p];
  }

  /// Records written to disk.
  uint64_t spilled_records() const { return spilled_records_; }
  /// Runs this producer wrote for partition p, in flush order — which is
  /// emission order: a flush takes a whole bucket, so every record in an
  /// earlier run was emitted before every record of a later run or of the
  /// in-memory residue. A ref names a byte extent of a segment file that
  /// may hold other partitions' runs too.
  const std::vector<SpillRunRef>& spill_runs(size_t p) const {
    static const std::vector<SpillRunRef> kNone;
    return spill_runs_.empty() ? kNone : spill_runs_[p];
  }

 private:
  void SortBucket(size_t p) {
    auto& bucket = buckets_[p];
    if (bucket.size() < 2) return;
    std::stable_sort(
        bucket.begin(), bucket.end(),
        [](const std::pair<Key, Value>& a, const std::pair<Key, Value>& b) {
          return a.first < b.first;
        });
  }

  // Spill flush: sort EVERY non-empty bucket and write them all, one
  // sorted run each, into ONE segment file — so the file count tracks the
  // flush count, not bucket × flush.
  // A failed flush is degraded, not lossy: every record stays in memory,
  // the error is recorded on the context, and flushing stops.
  void SpillAllBuckets() {
    PublishResident();
    for (size_t p = 0; p < buckets_.size(); ++p) SortBucket(p);
    const std::string path = spill_->NewRunPath();
    SpillRunWriter<Key, Value> writer(spill_->NewIo());
    Status s = writer.Open(path);
    std::vector<std::pair<size_t, SpillRunRef>> refs;
    for (size_t p = 0; s.ok() && p < buckets_.size(); ++p) {
      auto& bucket = buckets_[p];
      if (bucket.empty()) continue;
      for (size_t i = 0; s.ok() && i < bucket.size(); ++i) {
        s = writer.Append(bucket[i]);
      }
      if (!s.ok()) break;
      SpillRunRef ref;
      s = writer.EndRun(&ref);
      if (s.ok()) refs.emplace_back(p, std::move(ref));
    }
    if (s.ok()) s = writer.Finish();
    if (!s.ok()) {
      spill_->RecordError(s);
      spill_failed_ = true;
      RemoveSpillFile(path);
      return;
    }
    for (auto& [p, ref] : refs) spill_runs_[p].push_back(std::move(ref));
    spill_->RegisterRuns(path, refs.size());
    spill_->AddRunFile(size_, writer.bytes_written(), writer.raw_bytes());
    spilled_records_ += size_;
    spill_->resident().Sub(size_);
    size_ = 0;
    for (auto& bucket : buckets_) {
      bucket.clear();
      bucket.shrink_to_fit();
    }
  }

  StableHash hasher_;
  std::vector<std::vector<std::pair<Key, Value>>> buckets_;
  size_t size_ = 0;

  // Drains the emitter-local residency delta into the shared gauge.
  void PublishResident() {
    if (spill_unpublished_ > 0) {
      spill_->resident().Add(spill_unpublished_);
      spill_unpublished_ = 0;
    }
  }

  // Spill policy (null = in-memory only, the default).
  SpillContext* spill_ = nullptr;
  size_t spill_share_ = 0;
  size_t spill_unpublished_ = 0;
  std::vector<std::vector<SpillRunRef>> spill_runs_;
  uint64_t spilled_records_ = 0;
  bool spill_failed_ = false;
};

namespace mapreduce_internal {

// Job-local gauge plus the optional pipeline-wide mirror.
struct GaugePair {
  ShuffleGauge* local;
  ShuffleGauge* shared;
  void Add(uint64_t n) const {
    local->Add(n);
    if (shared != nullptr) shared->Add(n);
  }
  void Sub(uint64_t n) const {
    local->Sub(n);
    if (shared != nullptr) shared->Sub(n);
  }
};

// Number of logical map tasks for `num_inputs` records: more tasks than
// workers so stragglers even out, as in real MapReduce.
inline size_t NumMapTasks(size_t num_inputs, size_t num_workers) {
  return std::max<size_t>(1, std::min(num_inputs, num_workers * 4));
}

// The retryable-vs-fatal taxonomy (see the fault-tolerance contract in
// the file comment): transient faults and resource pressure retry,
// everything else aborts the job.
inline bool IsRetryableTaskStatus(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kResourceExhausted;
}

// Per-phase task accounting, summed into JobStats at job end.
struct TaskCounters {
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> cancelled{0};

  void AddTo(JobStats* stats) const {
    stats->task_failures += failures.load(std::memory_order_relaxed);
    stats->task_retries += retries.load(std::memory_order_relaxed);
    stats->tasks_cancelled += cancelled.load(std::memory_order_relaxed);
  }
};

// Keyed fault-evaluation index for task-start sites, so every attempt of
// every task has a stable index regardless of thread interleaving:
//   attempt 0 of task t   -> t + 1       (matches the unkeyed 1-based
//                                         counter for one-attempt-per-task
//                                         phases, so existing once@N /
//                                         every@N / p@seed schedules are
//                                         unchanged)
//   retry attempt a >= 1  -> n + 1 + t * kFaultRetryStride + (a - 1)
// Retries beyond kFaultRetryStride would alias the next task's block;
// with the default max_task_retries = 2 the blocks are far apart.
inline constexpr uint64_t kFaultRetryStride = 32;

inline uint64_t TaskAttemptFaultKey(size_t n, size_t task, size_t attempt) {
  if (attempt == 0) return static_cast<uint64_t>(task) + 1;
  return static_cast<uint64_t>(n) + 1 +
         static_cast<uint64_t>(task) * kFaultRetryStride +
         static_cast<uint64_t>(attempt - 1);
}

// Upper bound of TaskAttemptFaultKey over an n-task phase: the index range
// one phase must reserve so the next phase's keys never collide with it.
inline uint64_t TaskFaultBlockSize(size_t n) {
  return (static_cast<uint64_t>(n) + 1) * (kFaultRetryStride + 1);
}

// Claims this phase's contiguous key range for `site` (see the keyed-
// evaluation notes in common/fault.h): sequential phases evaluating the
// same site get disjoint ranges in deterministic program order, which is
// what keeps "once"-style specs firing once per process, not once per
// phase.
inline uint64_t ReservePhaseFaultBlock(const char* site, uint64_t count) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return 0;
  return injector.ReserveBlock(site, count);
}

// Runs `n` logical tasks on `pool` under the engine's fault-tolerance
// contract. Each task: (1) bails (counted cancelled) when the job token
// is already tripped; (2) evaluates the phase's FAULT_POINT — keyed by
// (task, attempt) via TaskAttemptFaultKey in a block this phase reserves
// for `fault_site`, and fired *here* it precedes any side effect, so it
// is retryable even for phases with no reset; (3) runs `body(task)`,
// catching exceptions into a Status. A retryable failure re-executes the
// task — after `reset(task)` restores its pristine state if the body had
// started — up to `max_retries` times; a fatal failure (or exhausted
// retries, or a retryable body failure in a phase that passed reset ==
// nullptr because it consumes shared state destructively) trips the
// token with the root cause and sibling tasks stop at their next
// boundary.
inline void RunTasksWithRetry(
    ThreadPool* pool, size_t n, size_t max_retries,
    CancellationToken token, const char* fault_site, TaskCounters* counters,
    const std::function<void(size_t)>& reset,
    const std::function<void(size_t)>& body) {
  const uint64_t fault_base =
      ReservePhaseFaultBlock(fault_site, TaskFaultBlockSize(n));
  pool->ParallelFor(n, [&, token](size_t task) mutable {
    if (token.cancelled()) {
      counters->cancelled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (size_t attempt = 0;; ++attempt) {
      Status s = FAULT_POINT_AT(
          fault_site, fault_base + TaskAttemptFaultKey(n, task, attempt));
      bool started = false;
      if (s.ok()) {
        started = true;
        try {
          body(task);
        } catch (const std::bad_alloc&) {
          s = Status::ResourceExhausted("task threw std::bad_alloc");
        } catch (const std::exception& e) {
          s = Status::Internal(std::string("task threw: ") + e.what());
        } catch (...) {
          s = Status::Internal("task threw an unknown exception type");
        }
      }
      if (s.ok()) return;
      counters->failures.fetch_add(1, std::memory_order_relaxed);
      const bool resettable = !started || reset != nullptr;
      if (IsRetryableTaskStatus(s) && resettable && attempt < max_retries &&
          !token.cancelled()) {
        counters->retries.fetch_add(1, std::memory_order_relaxed);
        if (started && reset != nullptr) reset(task);
        continue;
      }
      token.Cancel(std::move(s));
      return;
    }
  });
}

// Sets the job's status at job end: the cancellation cause, or — as a
// safety net — any exception the pool itself caught outside the retry
// wrapper.
inline void FinishTaskStats(ThreadPool* pool, const CancellationToken& token,
                            JobStats* stats) {
  if (token.cancelled()) stats->status = token.cause();
  if (Status s = pool->TakeStatus(); !s.ok() && stats->status.ok()) {
    stats->status = s;
  }
}

// Builds partition `p` of the in-memory shuffle: concatenates every
// producer's bucket `p` in producer order (freeing the buckets), then
// stable-sorts by key, so equal keys form contiguous runs whose values
// keep (producer, emission) order.
template <typename Key, typename Value, typename Producers>
std::vector<std::pair<Key, Value>> MergeSortPartition(
    Producers* producers, size_t p, const GaugePair& gauge) {
  size_t total = 0;
  for (auto& producer : *producers) total += producer.bucket(p).size();
  std::vector<std::pair<Key, Value>> partition;
  partition.reserve(total);
  gauge.Add(total);
  for (auto& producer : *producers) {
    auto& bucket = producer.bucket(p);
    std::move(bucket.begin(), bucket.end(), std::back_inserter(partition));
    bucket.clear();
    bucket.shrink_to_fit();
  }
  gauge.Sub(total);  // the source buckets are gone; the partition remains
  std::stable_sort(
      partition.begin(), partition.end(),
      [](const std::pair<Key, Value>& a, const std::pair<Key, Value>& b) {
        return a.first < b.first;
      });
  return partition;
}

// Reduces one key run and counts the group.
template <typename Key, typename Value, typename ReduceRun>
void ReduceGroup(const Key& key, std::vector<Value>* values,
                 uint64_t* num_groups, const ReduceRun& reduce_run) {
  ++*num_groups;
  reduce_run(key, std::span<Value>(*values));
}

// Scans one sorted partition run by run, moving each run's values into
// the reused `run_values` buffer and reducing each run (ReduceGroup).
template <typename Key, typename Value, typename ReduceRun>
void ReduceSortedRuns(std::vector<std::pair<Key, Value>>* partition,
                      uint64_t* num_groups, const ReduceRun& reduce_run) {
  std::vector<Value> run_values;  // reused across runs: no per-key node
  size_t i = 0;
  while (i < partition->size()) {
    const Key& key = (*partition)[i].first;
    size_t j = i + 1;
    while (j < partition->size() && (*partition)[j].first == key) ++j;
    run_values.clear();
    for (size_t r = i; r < j; ++r) {
      run_values.push_back(std::move((*partition)[r].second));
    }
    ReduceGroup(key, &run_values, num_groups, reduce_run);
    i = j;
  }
}

// ---- External-memory spill: reduce-time merge (see spill.h) ---------------

// Budget resolution: an explicit per-job budget wins; otherwise the
// CC_SHUFFLE_SPILL_BUDGET test-tier override applies; 0 = no spill.
inline size_t EffectiveSpillBudget(const MapReduceOptions& options) {
  if (options.memory_budget_records > 0) {
    return options.memory_budget_records;
  }
  return SpillBudgetFromEnv();
}

// Creates and initializes the job's spill context; on failure the error
// lands in *stats (spill_status) and the job runs in memory.
inline std::unique_ptr<SpillContext> MakeSpillContext(
    const MapReduceOptions& options, JobStats* stats) {
  const size_t budget = EffectiveSpillBudget(options);
  if (budget == 0) return nullptr;
  auto context = std::make_unique<SpillContext>(budget, options.spill_dir,
                                                options.spill_io_factory);
  if (Status s = context->Init(); !s.ok()) {
    stats->spill_status = s;
    return nullptr;
  }
  return context;
}

// One sorted run feeding the k-way merge: either a producer's in-memory
// bucket (records are moved out; the vector is cleared by the caller
// afterwards) or a spill run file streamed one record at a time.
template <typename Key, typename Value>
struct RunCursor {
  std::vector<std::pair<Key, Value>>* memory = nullptr;
  size_t memory_index = 0;
  std::unique_ptr<SpillRunReader<Key, Value>> reader;
  bool from_disk = false;

  std::pair<Key, Value> head;
  bool has_head = false;

  // Opens spill run `run` as a merge input: read through the job's io
  // (so injected "merge.read" faults apply), counting checksum failures
  // into the job's counter.
  Status OpenMergeInput(SpillContext* context, const SpillRunRef& run) {
    from_disk = true;
    reader = std::make_unique<SpillRunReader<Key, Value>>(context->NewIo());
    reader->set_checksum_failure_counter(context->checksum_failure_counter());
    return reader->Open(run);
  }

  Status Advance() {
    if (memory != nullptr) {
      if (memory_index < memory->size()) {
        head = std::move((*memory)[memory_index++]);
        has_head = true;
      } else {
        has_head = false;
      }
      return Status::OK();
    }
    bool done = false;
    Status s = reader->Next(&head, &done);
    if (!s.ok()) {
      has_head = false;
      return s;
    }
    has_head = !done;
    if (done) return reader->Close();
    return Status::OK();
  }
};

// Min-heap of run-cursor indices keyed by (head key, source index) — the
// heap discipline shared by the pre-merge and the reduce-time merge.
// Pop() yields the cursor holding the smallest head key, ties going to
// the lowest source index so earlier producers/runs drain first (what
// preserves the in-memory shuffle's (producer, emission) value order);
// the caller consumes the head, Advances the cursor, and Reinserts it
// while it still has one.
template <typename Key, typename Value>
class RunCursorHeap {
 public:
  explicit RunCursorHeap(std::vector<RunCursor<Key, Value>>* cursors)
      : cursors_(cursors) {
    for (size_t i = 0; i < cursors_->size(); ++i) {
      if ((*cursors_)[i].has_head) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), Later());
  }

  bool empty() const { return heap_.empty(); }

  size_t Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    const size_t index = heap_.back();
    heap_.pop_back();
    return index;
  }

  void Reinsert(size_t index) {
    heap_.push_back(index);
    std::push_heap(heap_.begin(), heap_.end(), Later());
  }

 private:
  auto Later() const {
    return [cursors = cursors_](size_t a, size_t b) {
      const Key& ka = (*cursors)[a].head.first;
      const Key& kb = (*cursors)[b].head.first;
      if (kb < ka) return true;
      if (ka < kb) return false;
      return a > b;  // equal keys: lower source index drains first
    };
  }

  std::vector<RunCursor<Key, Value>>* cursors_;
  std::vector<size_t> heap_;
};

// Fan-in of one merge (open run files at a time) and the per-producer run
// count above which runs are pre-merged into fewer, larger runs. Together
// they bound the file descriptors one partition merge holds open to
// roughly #producers * kSpillRunsPerProducerTarget.
inline constexpr size_t kSpillMergeFanIn = 16;
inline constexpr size_t kSpillRunsPerProducerTarget = 4;

// Streams `runs` (consecutive runs of one producer and partition, in run
// order) through a k-way merge into one new single-run file. Each record
// goes straight from its cursor to the writer, so the merge holds no
// window of records. Consumed input runs are released on success (a
// segment file is deleted once the last run it backs is released).
template <typename Key, typename Value>
Status MergeRunBatchToFile(SpillContext* context,
                           const std::vector<SpillRunRef>& runs,
                           SpillRunRef* out_run) {
  std::vector<RunCursor<Key, Value>> cursors(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (Status s = cursors[i].OpenMergeInput(context, runs[i]); !s.ok()) {
      return s;
    }
    if (Status s = cursors[i].Advance(); !s.ok()) return s;
  }
  const std::string out_path = context->NewRunPath();
  SpillRunWriter<Key, Value> writer(context->NewIo());
  if (Status s = writer.Open(out_path); !s.ok()) return s;

  RunCursorHeap<Key, Value> heap(&cursors);
  while (!heap.empty()) {
    const size_t index = heap.Pop();
    auto& cursor = cursors[index];
    if (Status s = writer.Append(cursor.head); !s.ok()) return s;
    if (Status s = cursor.Advance(); !s.ok()) return s;
    if (cursor.has_head) heap.Reinsert(index);
  }
  if (Status s = writer.EndRun(out_run); !s.ok()) return s;
  if (Status s = writer.Finish(); !s.ok()) return s;
  context->RegisterRuns(out_path, 1);
  context->AddRunFile(writer.records_written(), writer.bytes_written(),
                      writer.raw_bytes());
  for (const SpillRunRef& run : runs) context->ReleaseRun(run.path);
  return Status::OK();
}

// Hierarchical pre-merge: while one producer contributed more runs to a
// partition than the merge should open at once, batches of consecutive
// runs collapse into single larger runs (order-preserving: batches are
// contiguous in run order). Each sweep over the run list is one
// merge pass (JobStats::merge_passes).
template <typename Key, typename Value>
Status PreMergeProducerRuns(SpillContext* context,
                            std::vector<SpillRunRef>* runs) {
  while (runs->size() > kSpillRunsPerProducerTarget) {
    context->AddMergePass();
    std::vector<SpillRunRef> merged;
    for (size_t begin = 0; begin < runs->size();
         begin += kSpillMergeFanIn) {
      const size_t end = std::min(begin + kSpillMergeFanIn, runs->size());
      if (end - begin == 1) {
        merged.push_back((*runs)[begin]);
        continue;
      }
      const std::vector<SpillRunRef> batch(runs->begin() + begin,
                                           runs->begin() + end);
      SpillRunRef out_run;
      if (Status s =
              MergeRunBatchToFile<Key, Value>(context, batch, &out_run);
          !s.ok()) {
        return s;
      }
      merged.push_back(std::move(out_run));
    }
    *runs = std::move(merged);
  }
  return Status::OK();
}

// Frees every producer's in-memory residue bucket of partition `p` after
// its spill-mode merge consumed them, returning the record count released
// (what the caller Subs from the job's shuffle gauge).
template <typename Producers>
size_t ReleasePartitionResidue(Producers* producers, size_t p) {
  size_t residue = 0;
  for (auto& producer : *producers) {
    residue += producer.bucket(p).size();
    producer.bucket(p).clear();
    producer.bucket(p).shrink_to_fit();
  }
  return residue;
}

// Reduces one shuffle partition straight from the k-way merge of every
// producer's spill runs and in-memory bucket — the spill-mode counterpart
// of MergeSortPartition + ReduceSortedRuns. Sources are ordered producer-
// major with each producer's disk runs (flush order) before its residue,
// and ties in the merge break toward the lower source index, so a key
// run's values arrive in exactly the (producer, emission) order the
// in-memory shuffle produces — as ONE contiguous span, even when the run
// was split across several spill files. The span points into a buffer
// reused across runs, stable for the duration of one reduce_run call
// (the same contract as the in-memory shuffle).
//
// Only the active run's values are memory-resident (context->resident()
// tracks the window). In-memory buckets are consumed by moving; the
// caller clears them afterwards. Returns the first I/O error; the caller
// records it on the context (outputs of that partition may then be
// incomplete — never silently, the error is sticky).
template <typename Key, typename Value, typename Producers,
          typename ReduceRun>
Status ReduceMergedRuns(Producers* producers, size_t p,
                        SpillContext* context, uint64_t* num_groups,
                        const ReduceRun& reduce_run) {
  // Hierarchical pre-merge per producer, then one cursor per remaining
  // run plus one per in-memory residue.
  std::vector<std::vector<SpillRunRef>> producer_runs;
  bool any_disk = false;
  for (auto& producer : *producers) {
    std::vector<SpillRunRef> runs = producer.spill_runs(p);
    if (!runs.empty()) any_disk = true;
    if (Status s = PreMergeProducerRuns<Key, Value>(context, &runs);
        !s.ok()) {
      return s;
    }
    producer_runs.push_back(std::move(runs));
  }
  if (any_disk) context->AddMergePass();  // the final streamed merge

  std::vector<RunCursor<Key, Value>> cursors;
  size_t producer_index = 0;
  for (auto& producer : *producers) {
    for (const SpillRunRef& run : producer_runs[producer_index]) {
      RunCursor<Key, Value> cursor;
      if (Status s = cursor.OpenMergeInput(context, run); !s.ok()) return s;
      cursors.push_back(std::move(cursor));
    }
    if (!producer.bucket(p).empty()) {
      RunCursor<Key, Value> cursor;
      cursor.memory = &producer.bucket(p);
      cursors.push_back(std::move(cursor));
    }
    ++producer_index;
  }
  for (auto& cursor : cursors) {
    if (Status s = cursor.Advance(); !s.ok()) return s;
  }

  RunCursorHeap<Key, Value> heap(&cursors);
  std::vector<Value> run_values;  // reused across runs, like the in-memory
                                  // shuffle: no per-key heap node
  Key current_key{};
  bool have_run = false;
  // Disk-record window residency is published in batches (one
  // shared-gauge RMW per kSpillResidentPublishBatch records, drained
  // before every Sub so the unsigned gauge never underflows), like the
  // emit side.
  size_t window_unpublished = 0;
  auto publish_window = [&]() {
    if (window_unpublished > 0) {
      context->resident().Add(window_unpublished);
      window_unpublished = 0;
    }
  };
  auto emit_run = [&]() {
    ReduceGroup(current_key, &run_values, num_groups, reduce_run);
    publish_window();
    context->resident().Sub(run_values.size());
    run_values.clear();
    have_run = false;
  };

  while (!heap.empty()) {
    const size_t index = heap.Pop();
    auto& cursor = cursors[index];
    if (have_run && current_key < cursor.head.first) emit_run();
    if (!have_run) {
      current_key = cursor.head.first;
      have_run = true;
    }
    run_values.push_back(std::move(cursor.head.second));
    // Disk records enter residency here; memory records were already
    // counted at emit time and merely change buffers.
    if (cursor.from_disk &&
        ++window_unpublished >= kSpillResidentPublishBatch) {
      publish_window();
    }
    if (Status s = cursor.Advance(); !s.ok()) return s;
    if (cursor.has_head) heap.Reinsert(index);
  }
  if (have_run) emit_run();
  return Status::OK();
}

// ---- One job's phases --------------------------------------------------

// Job-wide state shared by every phase of one job (a fused two-stage job
// is one job: one pool, one gauge, one spill context, one failure
// domain). The spill context's Init error, if any, lands in *spill_stats
// and the job runs in memory.
struct SortedJob {
  SortedJob(const MapReduceOptions& job_options, JobStats* spill_stats)
      : options(job_options),
        num_workers(job_options.effective_workers()),
        num_partitions(std::max<size_t>(1, job_options.num_partitions)),
        pool(num_workers),
        gauge{&local_gauge, job_options.shuffle_gauge},
        spill(MakeSpillContext(job_options, spill_stats)) {}
  SortedJob(const SortedJob&) = delete;
  SortedJob& operator=(const SortedJob&) = delete;

  const MapReduceOptions& options;
  const size_t num_workers;
  const size_t num_partitions;
  ThreadPool pool;
  ShuffleGauge local_gauge;
  const GaugePair gauge;
  const std::unique_ptr<SpillContext> spill;  // null = in-memory shuffle
  CancellationToken cancel;
};

// One producer's even share of the job's spill budget when `stages`
// stages with `producers` producers each are live at once: per-producer
// triggers are contention-free and deterministic for a fixed task count,
// and the shares sum to (at most) the budget. 0 when the job does not
// spill.
inline size_t ProducerShare(const SortedJob& job, size_t stages,
                            size_t producers) {
  if (job.spill == nullptr) return 0;
  return std::max<size_t>(1, job.spill->budget() / stages / producers);
}

// `count` fresh producers, each spill-armed with `share` when the job
// spills.
template <typename Key, typename Value>
std::vector<PartitionedEmitter<Key, Value>> NewProducers(const SortedJob& job,
                                                         size_t count,
                                                         size_t share) {
  std::vector<PartitionedEmitter<Key, Value>> producers;
  producers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    producers.emplace_back(job.num_partitions);
    if (job.spill != nullptr) {
      producers.back().EnableSpill(job.spill.get(), share);
    }
  }
  return producers;
}

// Runs one map phase: task t of `n` = producers->size() - first maps an
// even slice of `inputs` into (*producers)[first + t], under the retry
// contract of the file comment. One attempt maps its slice, polling the
// job token between records, then sorts its buckets and publishes its
// residency. Folds the phase's map output count into *stats.
template <typename Input, typename Key, typename Value, typename MapFn>
void RunMapStage(SortedJob& job, const std::vector<Input>& inputs,
                 const MapFn& map_fn,
                 std::vector<PartitionedEmitter<Key, Value>>* producers,
                 size_t first, TaskCounters* counters, JobStats* stats) {
  Stopwatch watch;
  const size_t n = producers->size() - first;
  RunTasksWithRetry(
      &job.pool, n, job.options.max_task_retries, job.cancel, "task.map",
      counters,
      [&](size_t task) {  // reset: rebuild the producer from scratch
        (*producers)[first + task].Abandon();
      },
      [&](size_t task) {
        auto& em = (*producers)[first + task];
        const size_t begin = inputs.size() * task / n;
        const size_t end = inputs.size() * (task + 1) / n;
        for (size_t i = begin; i < end; ++i) {
          if (job.cancel.cancelled()) return;  // job abort
          map_fn(inputs[i], &em);
        }
        em.FinishSpill();  // sort the residue for the merge
        job.gauge.Add(em.size());
      });
  for (size_t t = 0; t < n; ++t) {
    const auto& producer = (*producers)[first + t];
    stats->map_output_records += producer.size() + producer.spilled_records();
  }
  stats->map_wall_seconds = watch.ElapsedSeconds();
}

// The shuffle phase: builds every partition from the producers' buckets
// (MergeSortPartition). A spilling job has none — its runs are already
// sorted, on disk and in the residue buckets, and merge streaming inside
// the reduce phase — so it gets no partitions.
template <typename Key, typename Value>
std::vector<std::vector<std::pair<Key, Value>>> RunShuffleStage(
    SortedJob& job, std::vector<PartitionedEmitter<Key, Value>>* producers,
    TaskCounters* counters, JobStats* stats) {
  Stopwatch watch;
  std::vector<std::vector<std::pair<Key, Value>>> partitions;
  if (job.spill == nullptr) {
    partitions.resize(job.num_partitions);
    RunTasksWithRetry(
        &job.pool, job.num_partitions, job.options.max_task_retries,
        job.cancel, "alloc.shuffle", counters, nullptr, [&](size_t p) {
          partitions[p] =
              MergeSortPartition<Key, Value>(producers, p, job.gauge);
        });
  }
  stats->shuffle_wall_seconds = watch.ElapsedSeconds();
  return partitions;
}

// The reduce phase: partition p is reduced from the k-way merge of the
// producers' runs and residue when the job spills (ReduceMergedRuns),
// else from partitions[p] (ReduceSortedRuns); `reduce_run(p, key,
// values)` sees each key run. Then the partition's input records are
// freed, `done(p)` runs — where the fused runner moves the records stage
// 1 emitted into stage 2's shuffle — and the freed records leave the
// gauge. Folds the group counts into *stats.
template <typename Key, typename Value, typename ReduceRun, typename Done>
void RunReduceStage(SortedJob& job,
                    std::vector<PartitionedEmitter<Key, Value>>* producers,
                    std::vector<std::vector<std::pair<Key, Value>>>* partitions,
                    TaskCounters* counters, JobStats* stats,
                    const ReduceRun& reduce_run, const Done& done) {
  Stopwatch watch;
  std::vector<uint64_t> num_groups(job.num_partitions, 0);
  RunTasksWithRetry(
      &job.pool, job.num_partitions, job.options.max_task_retries,
      job.cancel, "task.reduce", counters, nullptr, [&](size_t p) {
        auto reduce_key = [&](const Key& key, std::span<Value> values) {
          reduce_run(p, key, values);
        };
        size_t released = 0;
        if (job.spill != nullptr) {
          Status s = ReduceMergedRuns<Key, Value>(
              producers, p, job.spill.get(), &num_groups[p], reduce_key);
          if (!s.ok()) job.spill->RecordDataLoss(s);
          released = ReleasePartitionResidue(producers, p);
        } else {
          auto& partition = (*partitions)[p];
          ReduceSortedRuns<Key, Value>(&partition, &num_groups[p], reduce_key);
          released = partition.size();
          partition.clear();
          partition.shrink_to_fit();
        }
        done(p);
        job.gauge.Sub(released);
      });
  for (uint64_t groups : num_groups) stats->num_groups += groups;
  stats->reduce_wall_seconds = watch.ElapsedSeconds();
}

// Concatenates per-partition outputs in partition order.
template <typename Output>
std::vector<Output> ConcatOutputs(std::vector<std::vector<Output>>* parts) {
  size_t total = 0;
  for (const auto& part : *parts) total += part.size();
  std::vector<Output> outputs;
  outputs.reserve(total);
  for (auto& part : *parts) {
    std::move(part.begin(), part.end(), std::back_inserter(outputs));
  }
  return outputs;
}

// End-of-job bookkeeping: the shuffle peak, the spill counters (an
// in-memory job reports its shuffle peak as the resident peak), the task
// accounting, and the job status.
inline void FinishJobStats(SortedJob& job, const TaskCounters& counters,
                           JobStats* stats) {
  stats->peak_shuffle_records = job.local_gauge.peak();
  SpillContext* spill = job.spill.get();
  if (spill != nullptr) {
    stats->spilled_records = spill->spilled_records();
    stats->spill_files = spill->spill_files();
    stats->spill_bytes = spill->spill_bytes();
    stats->spill_raw_bytes = spill->spill_raw_bytes();
    stats->merge_passes = spill->merge_passes();
    stats->checksum_failures = spill->checksum_failures();
    stats->peak_resident_records = spill->resident().peak();
    stats->spill_status = spill->status();
    stats->spill_data_loss = spill->data_loss();
  } else {
    stats->peak_resident_records = job.local_gauge.peak();
  }
  counters.AddTo(stats);
  FinishTaskStats(&job.pool, job.cancel, stats);
}

}  // namespace mapreduce_internal

/// Runs one MapReduce job (see the file comment).
///
/// `map_fn(input, emitter)` is called once per input record; it may emit
/// any number of (Key, Value) pairs. `reduce_fn(key, values, output)` is
/// called once per distinct key with every value emitted under that key,
/// as a mutable std::span (reducers may reorder in place; the values
/// arrive in map-task emission order); it appends results to `output`.
/// Both functions must be thread-safe with respect to their own captured
/// state (they run concurrently on different records/groups).
///
/// Every emitted record reaches the reducer: map_output_records and
/// shuffle_records both count the emitted records.
///
/// Returns all reduce outputs (unspecified but deterministic order for a
/// fixed number of partitions); an aborted job returns none and reports
/// the root cause in JobStats::status. `stats`, if non-null, receives
/// execution statistics.
template <typename Input, typename Key, typename Value, typename Output>
std::vector<Output> RunMapReduceSorted(
    const std::string& job_name, const std::vector<Input>& inputs,
    const std::function<void(const Input&, PartitionedEmitter<Key, Value>*)>&
        map_fn,
    const std::function<void(const Key&, std::span<Value>,
                             std::vector<Output>*)>& reduce_fn,
    const MapReduceOptions& options = {}, JobStats* stats = nullptr) {
  namespace mri = mapreduce_internal;
  JobStats local_stats;
  local_stats.name = job_name;
  local_stats.input_records = inputs.size();
  mri::SortedJob job(options, &local_stats);
  mri::TaskCounters counters;

  const size_t num_map_tasks = mri::NumMapTasks(inputs.size(), job.num_workers);
  auto producers = mri::NewProducers<Key, Value>(
      job, num_map_tasks, mri::ProducerShare(job, 1, num_map_tasks));
  mri::RunMapStage<Input, Key, Value>(job, inputs, map_fn, &producers, 0,
                                      &counters, &local_stats);
  local_stats.shuffle_records = local_stats.map_output_records;
  auto partitions = mri::RunShuffleStage<Key, Value>(job, &producers,
                                                     &counters, &local_stats);
  std::vector<std::vector<Output>> outputs(job.num_partitions);
  mri::RunReduceStage<Key, Value>(
      job, &producers, &partitions, &counters, &local_stats,
      [&](size_t p, const Key& key, std::span<Value> values) {
        reduce_fn(key, values, &outputs[p]);
      },
      [](size_t) {});
  std::vector<Output> result = mri::ConcatOutputs(&outputs);
  local_stats.reduce_output_records = result.size();
  mri::FinishJobStats(job, counters, &local_stats);
  if (!local_stats.status.ok()) result.clear();  // aborted: outputs void

  if (stats != nullptr) *stats = std::move(local_stats);
  return result;
}

/// Runs two stages fused into one job: stage 1's reduce emits (Key2,
/// Value2) records directly into stage 2's partition-at-emit shuffle —
/// the intermediate record vector a two-job pipeline would materialize
/// between them never exists — and `stage2_side_inputs` are mapped by
/// `map2_fn` into the same shuffle (pass an empty vector and any map2_fn
/// when there is no side input). Stage-1 partitions are freed as they are
/// reduced, so the peak of shuffle-resident records is bounded by one
/// stage's records plus transients instead of the sum of both stages.
///
/// Both stages record their own JobStats (names `stage1_name` /
/// `stage2_name`); they share one ShuffleGauge and report the same
/// fused-job peak. Determinism: outputs are deterministic
/// for fixed worker/partition counts; the order of values within a
/// stage-2 run follows producer order (stage-1 partitions first, then
/// side-input map tasks), so reducers that must be invariant across
/// partition counts should be value-order-insensitive. A stage-2 key that
/// stage 1 emitted k times reaches reduce2_fn as one run of k values.
template <typename Input1, typename Key1, typename Value1, typename Input2,
          typename Key2, typename Value2, typename Output>
std::vector<Output> RunFusedMapReduceSorted(
    const std::string& stage1_name, const std::string& stage2_name,
    const std::vector<Input1>& stage1_inputs,
    const std::function<void(const Input1&,
                             PartitionedEmitter<Key1, Value1>*)>& map1_fn,
    const std::function<void(const Key1&, std::span<Value1>,
                             PartitionedEmitter<Key2, Value2>*)>& reduce1_fn,
    const std::vector<Input2>& stage2_side_inputs,
    const std::function<void(const Input2&,
                             PartitionedEmitter<Key2, Value2>*)>& map2_fn,
    const std::function<void(const Key2&, std::span<Value2>,
                             std::vector<Output>*)>& reduce2_fn,
    const MapReduceOptions& options = {}, JobStats* stage1_stats = nullptr,
    JobStats* stage2_stats = nullptr) {
  namespace mri = mapreduce_internal;
  JobStats s1, s2;
  s1.name = stage1_name;
  s1.input_records = stage1_inputs.size();
  s2.name = stage2_name;
  s2.input_records = stage2_side_inputs.size();
  mri::SortedJob job(options, &s1);
  // One failure domain for the fused job: both stages share the job's
  // token (stage 2 cannot produce anything meaningful from an aborted
  // stage 1) but account their tasks separately.
  mri::TaskCounters counters1, counters2;

  // ---- Stage 1 map and shuffle. Both stages' producers are live at once
  // while stage 1's reduce feeds stage 2's shuffle, so each stage gets
  // half the job budget, split evenly over its producers.
  const size_t num_map1_tasks =
      mri::NumMapTasks(stage1_inputs.size(), job.num_workers);
  auto producers1 = mri::NewProducers<Key1, Value1>(
      job, num_map1_tasks, mri::ProducerShare(job, 2, num_map1_tasks));
  mri::RunMapStage<Input1, Key1, Value1>(job, stage1_inputs, map1_fn,
                                         &producers1, 0, &counters1, &s1);
  s1.shuffle_records = s1.map_output_records;
  auto partitions1 =
      mri::RunShuffleStage<Key1, Value1>(job, &producers1, &counters1, &s1);

  // ---- Stage 2 producers: one per stage-1 reduce partition, then one per
  // side-input map task (fixed order keeps the run concatenation
  // deterministic). The side map runs first.
  const size_t num_map2_tasks =
      stage2_side_inputs.empty()
          ? 0
          : mri::NumMapTasks(stage2_side_inputs.size(), job.num_workers);
  const size_t num_producers2 = job.num_partitions + num_map2_tasks;
  auto producers2 = mri::NewProducers<Key2, Value2>(
      job, num_producers2, mri::ProducerShare(job, 2, num_producers2));
  mri::RunMapStage<Input2, Key2, Value2>(job, stage2_side_inputs, map2_fn,
                                         &producers2, job.num_partitions,
                                         &counters2, &s2);

  // ---- Stage 1 reduce, emitting into stage 2's shuffle.
  mri::RunReduceStage<Key1, Value1>(
      job, &producers1, &partitions1, &counters1, &s1,
      [&](size_t p, const Key1& key, std::span<Value1> values) {
        reduce1_fn(key, values, &producers2[p]);
      },
      [&](size_t p) {
        auto& out = producers2[p];
        out.FinishSpill();
        job.gauge.Add(out.size());  // records now live in stage 2's buckets
      });
  for (size_t p = 0; p < job.num_partitions; ++p) {
    const auto& out = producers2[p];
    s1.reduce_output_records += out.size() + out.spilled_records();
    s2.map_output_records += out.size() + out.spilled_records();
  }
  s2.shuffle_records = s2.map_output_records;

  // ---- Stage 2 shuffle and reduce.
  auto partitions2 =
      mri::RunShuffleStage<Key2, Value2>(job, &producers2, &counters2, &s2);
  std::vector<std::vector<Output>> outputs(job.num_partitions);
  mri::RunReduceStage<Key2, Value2>(
      job, &producers2, &partitions2, &counters2, &s2,
      [&](size_t p, const Key2& key, std::span<Value2> values) {
        reduce2_fn(key, values, &outputs[p]);
      },
      [](size_t) {});
  std::vector<Output> result = mri::ConcatOutputs(&outputs);
  s2.reduce_output_records = result.size();

  // The fused job's totals — spill counters, the pool safety-net status —
  // land on stage 2, the stage whose stats carry the job's end state; the
  // shared peaks and statuses are mirrored on stage 1, like the shuffle
  // gauge.
  mri::FinishJobStats(job, counters2, &s2);
  counters1.AddTo(&s1);
  s1.peak_shuffle_records = s2.peak_shuffle_records;
  s1.peak_resident_records = s2.peak_resident_records;
  if (job.spill != nullptr) {
    s1.spill_status = s2.spill_status;
    s1.spill_data_loss = s2.spill_data_loss;
  }
  s1.status = s2.status;
  if (!s2.status.ok()) result.clear();  // aborted: outputs void

  if (stage1_stats != nullptr) *stage1_stats = std::move(s1);
  if (stage2_stats != nullptr) *stage2_stats = std::move(s2);
  return result;
}

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_MAPREDUCE_H_
