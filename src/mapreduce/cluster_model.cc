#include "mapreduce/cluster_model.h"

#include <algorithm>
#include <vector>

namespace tsj {

double EffectiveGroupCostSeconds(const GroupLoad& group,
                                 const ClusterModelParams& params) {
  if (group.work_units > 0) {
    return static_cast<double>(group.work_units) * params.seconds_per_unit;
  }
  const double fallback = static_cast<double>(group.records) *
                          params.fallback_record_seconds;
  return std::max(group.cost_seconds, fallback);
}

double ReduceMakespanSeconds(const JobStats& stats, uint64_t machines,
                             const ClusterModelParams& params) {
  if (machines == 0) machines = 1;
  const double per_group_overhead =
      params.group_overhead_seconds / params.worker_slowdown;
  if (stats.group_loads.empty()) {
    // No per-group data: assume balanced groups of equal cost, derived
    // from the measured reduce CPU.
    const double total_cost =
        stats.reduce_wall_seconds * static_cast<double>(stats.executed_workers) +
        per_group_overhead * static_cast<double>(stats.num_groups);
    return total_cost / static_cast<double>(machines);
  }
  std::vector<double> load(machines, 0.0);
  for (const GroupLoad& g : stats.group_loads) {
    load[g.key_hash % machines] +=
        EffectiveGroupCostSeconds(g, params) + per_group_overhead;
  }
  return *std::max_element(load.begin(), load.end());
}

double SimulateJobSeconds(const JobStats& stats, uint64_t machines,
                          const ClusterModelParams& params) {
  if (machines == 0) machines = 1;
  const double w = static_cast<double>(machines);
  // Deterministic map units when reported; measured map CPU otherwise.
  const double map_cpu_seconds =
      stats.map_work_units > 0
          ? static_cast<double>(stats.map_work_units) * params.seconds_per_unit
          : stats.map_wall_seconds *
                static_cast<double>(stats.executed_workers);
  const double map_time = params.worker_slowdown * map_cpu_seconds / w +
                          params.wave_overhead_seconds;
  const double shuffle_time =
      params.record_overhead_seconds *
      static_cast<double>(stats.map_output_records) / w;
  const double reduce_time =
      params.worker_slowdown * ReduceMakespanSeconds(stats, machines, params) +
      params.wave_overhead_seconds;
  return params.job_overhead_seconds + map_time + shuffle_time + reduce_time;
}

double SimulatePipelineSeconds(const PipelineStats& stats, uint64_t machines,
                               const ClusterModelParams& params) {
  double total = 0;
  for (const JobStats& job : stats.jobs) {
    total += SimulateJobSeconds(job, machines, params);
  }
  return total;
}

}  // namespace tsj
