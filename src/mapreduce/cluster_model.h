// Simulated-cluster cost model: turns measured JobStats into the wall time
// the same job would take on a shared-nothing cluster of W machines.
//
// The paper's scalability experiments (Figs. 1 and 7) sweep 100 to 1,000
// MapReduce machines (each limited to 0.5 CPU / 1 GB RAM); this repository
// runs on one host, so machine sweeps are reproduced analytically from the
// real execution's measurements:
//
//   map time     = slowdown * (map cost seconds) / W + wave overhead
//   shuffle time = record overhead * map_output / W
//   reduce time  = slowdown * makespan(W) + wave overhead, where
//     makespan(W) = max over machines m of
//                   sum_{groups g : hash(g) % W == m}
//                       (cost(g) + group instantiation overhead)
//   job time     = scheduling overhead + map + shuffle + reduce
//
// cost(g) and the map cost come from the deterministic work units the
// map/reduce functions report (work_units.h) — DP cells, solver steps,
// emitted records — converted with one calibration constant; measured wall
// time and record counts are fallbacks for functions that report nothing.
//
// The two effects the paper attributes speedup loss to are both captured:
// per-worker instantiation overhead (`group_overhead_seconds`, which also
// explains why grouping-on-one-string beats grouping-on-both-strings: far
// fewer groups) and load skew from popular tokens (heavy groups dominate
// the makespan and cannot be split). Because group costs count solver
// steps, CPU-heavy verification (exact Hungarian alignment) simulates
// slower than greedy alignment, reproducing the Figs. 2/3 orderings
// deterministically.

#ifndef TSJ_MAPREDUCE_CLUSTER_MODEL_H_
#define TSJ_MAPREDUCE_CLUSTER_MODEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "mapreduce/job_stats.h"

namespace tsj {

/// Cost-model calibration. Defaults mimic the paper's frugal cluster
/// workers (0.5 CPU, 1 GB RAM) relative to a modern local core.
struct ClusterModelParams {
  /// How much slower one simulated cluster machine is than one local core.
  /// Calibrated so that the benchmark workloads (tens of thousands of
  /// strings standing in for the paper's 44M) exhibit the paper's
  /// compute-to-overhead balance: ~3.8x speedup from 100 to 1,000 machines.
  double worker_slowdown = 800.0;
  /// Local-core seconds per reported work unit (work_units.h). One unit is
  /// roughly one DP cell / one emitted record / one solver step; the
  /// default is calibrated against the measured distance kernels
  /// (bench_distance_micro: a 576-cell SLD matrix build costs ~2 us).
  double seconds_per_unit = 3.5e-9;
  /// Seconds charged per reduce group for worker/task instantiation
  /// (Sec. V-A attributes the grouping-on-one-string win to this).
  double group_overhead_seconds = 0.0002;
  /// Shuffle/I-O seconds per map-output record.
  double record_overhead_seconds = 30e-6;
  /// Per-record reduce cost assumed when a group neither reports units nor
  /// takes measurable wall time.
  double fallback_record_seconds = 2e-6;
  /// Fixed per-job scheduling overhead, seconds.
  double job_overhead_seconds = 0.4;
  /// Fixed per-phase (map wave / reduce wave) startup, seconds.
  double wave_overhead_seconds = 0.1;
};

/// Effective cost of one reduce group under `params`, in local-core
/// seconds, excluding instantiation overhead. Deterministic work units are
/// preferred; measured wall seconds and the per-record fallback cover
/// groups that report none. Exposed for tests.
double EffectiveGroupCostSeconds(const GroupLoad& group,
                                 const ClusterModelParams& params);

/// The reduce-phase makespan in (local-core) seconds for `machines`
/// machines: groups are hash-assigned, each charged its effective cost plus
/// `group_overhead_seconds / worker_slowdown` (so the overhead is
/// `group_overhead_seconds` of *simulated* time). Exposed for tests.
double ReduceMakespanSeconds(const JobStats& stats, uint64_t machines,
                             const ClusterModelParams& params = {});

/// Simulated wall time of one job on `machines` machines.
double SimulateJobSeconds(const JobStats& stats, uint64_t machines,
                          const ClusterModelParams& params = {});

/// Simulated wall time of a pipeline (jobs run back to back).
double SimulatePipelineSeconds(const PipelineStats& stats, uint64_t machines,
                               const ClusterModelParams& params = {});

/// Skew-adaptive shuffle partition count (the planning-layer counterpart
/// of the makespan model above): given the per-key load profile of the
/// job about to run — `num_keys` distinct reduce keys, their `total_load`
/// and the heaviest single key's `max_key_load`, all in any one
/// consistent unit (records, emitted pairs, work units) — picks how many
/// shuffle partitions the sorted engine should use for `workers` parallel
/// reducers.
///
/// Rationale. A partition is the engine's reduce-scheduling granule, and
/// a key cannot be split across partitions, so the heaviest key pins one
/// partition for at least max_key_load. Two forces push the count up from
/// the classic 4 granules per worker: (a) every other key that hashes
/// into the heavy key's partition rides on the critical path, and the
/// expected co-hashed load shrinks as total_load / partitions; (b) finer
/// granules let the remaining workers interleave around the straggler.
/// Both matter in proportion to the skew ratio max_key_load / mean key
/// load — the same quantity that drives the simulated-cluster makespan's
/// skew term — so the count scales as 4 * workers * log2(1 + skew),
/// clamped to [1, min(num_keys, 1024)]: never more partitions than keys
/// (empty partitions only add merge/sort overhead) and a hard ceiling so
/// per-partition fixed costs stay negligible. A uniform profile
/// (skew ~ 1) reproduces the classic 4 * workers.
///
/// `fixed_fallback` is returned verbatim when the profile is empty
/// (num_keys, total_load or max_key_load of 0) — the caller's configured
/// fixed partition count. Deterministic; callers gate it behind their
/// adaptive_partitions option (tsj/hmj/massjoin all do).
size_t AdaptivePartitionCount(size_t workers, uint64_t num_keys,
                              uint64_t total_load, uint64_t max_key_load,
                              size_t fixed_fallback);

/// Accumulator for the per-key load profile AdaptivePartitionCount
/// consumes. AddQuadraticKey prices one reduce key whose group holds
/// `frequency` records with the shared-token reduce's cost shape —
/// f records in, f*(f-1)/2 pair emissions out — which is the load proxy
/// TSJ sizes its shared-token job with; keeping it here means
/// recalibrating the proxy touches exactly one place.
struct KeyLoadProfile {
  uint64_t num_keys = 0;
  uint64_t total_load = 0;
  uint64_t max_key_load = 0;

  void AddQuadraticKey(uint64_t frequency) {
    if (frequency == 0) return;
    const uint64_t load = frequency + frequency * (frequency - 1) / 2;
    ++num_keys;
    total_load += load;
    max_key_load = std::max(max_key_load, load);
  }
};

/// Convenience overload over an accumulated profile.
inline size_t AdaptivePartitionCount(size_t workers,
                                     const KeyLoadProfile& profile,
                                     size_t fixed_fallback) {
  return AdaptivePartitionCount(workers, profile.num_keys,
                                profile.total_load, profile.max_key_load,
                                fixed_fallback);
}

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_CLUSTER_MODEL_H_
