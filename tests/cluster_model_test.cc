#include "mapreduce/cluster_model.h"

#include <vector>

#include "common/hash.h"
#include "gtest/gtest.h"

namespace tsj {
namespace {

// A job whose reduce groups all have the same measured cost.
JobStats MakeBalancedJob(size_t num_groups, uint64_t records_per_group,
                         double cost_per_group_seconds = 0.0) {
  JobStats stats;
  stats.name = "balanced";
  stats.input_records = num_groups * records_per_group;
  stats.map_output_records = num_groups * records_per_group;
  stats.num_groups = num_groups;
  stats.executed_workers = 8;
  stats.map_wall_seconds = 0.05;
  stats.reduce_wall_seconds = 0.05;
  for (size_t g = 0; g < num_groups; ++g) {
    stats.group_loads.push_back(
        GroupLoad{Mix64(g), records_per_group, /*work_units=*/0,
                  cost_per_group_seconds});
  }
  return stats;
}

TEST(ClusterModelTest, MoreMachinesNeverSlower) {
  const JobStats job = MakeBalancedJob(10000, 20);
  double prev = SimulateJobSeconds(job, 100);
  for (uint64_t machines = 200; machines <= 1000; machines += 100) {
    const double t = SimulateJobSeconds(job, machines);
    EXPECT_LE(t, prev + 1e-9) << machines;
    prev = t;
  }
}

TEST(ClusterModelTest, SpeedupIsSublinearDueToOverheads) {
  // The paper reports a 3.8x speedup for 10x machines (Sec. V-A); fixed
  // job/wave overheads plus skew make perfect 10x impossible here too.
  const JobStats job = MakeBalancedJob(50000, 30);
  const double t100 = SimulateJobSeconds(job, 100);
  const double t1000 = SimulateJobSeconds(job, 1000);
  const double speedup = t100 / t1000;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 10.0);
}

TEST(ClusterModelTest, MeasuredCostOverridesRecordFallback) {
  ClusterModelParams params;
  GroupLoad measured{Mix64(1), 10, 0, 0.5};
  GroupLoad unmeasured{Mix64(2), 10, 0, 0.0};
  EXPECT_DOUBLE_EQ(EffectiveGroupCostSeconds(measured, params), 0.5);
  EXPECT_DOUBLE_EQ(EffectiveGroupCostSeconds(unmeasured, params),
                   10 * params.fallback_record_seconds);
}

TEST(ClusterModelTest, WorkUnitsTakePrecedenceOverMeasuredTime) {
  // Deterministic units are the preferred cost source: they make simulated
  // runtimes reproducible across runs, unlike per-group wall time.
  ClusterModelParams params;
  GroupLoad group{Mix64(3), 10, 1000, 0.5};
  EXPECT_DOUBLE_EQ(EffectiveGroupCostSeconds(group, params),
                   1000 * params.seconds_per_unit);
}

TEST(ClusterModelTest, CpuHeavyGroupsSimulateSlower) {
  // Two jobs, identical record counts, one with 10x the measured per-group
  // cost (e.g. Hungarian vs. greedy verification): the expensive one must
  // simulate slower at every machine count. This is the mechanism that
  // separates fuzzy-token-matching from greedy-token-aligning in Fig. 2.
  const JobStats cheap = MakeBalancedJob(2000, 10, 1e-5);
  const JobStats costly = MakeBalancedJob(2000, 10, 1e-4);
  for (uint64_t machines : {100u, 500u, 1000u}) {
    EXPECT_LT(SimulateJobSeconds(cheap, machines),
              SimulateJobSeconds(costly, machines))
        << machines;
  }
}

TEST(ClusterModelTest, SkewedGroupDominatesMakespan) {
  ClusterModelParams params;
  JobStats skewed = MakeBalancedJob(1000, 10);
  skewed.group_loads.push_back(
      GroupLoad{Mix64(77777), 1000000, /*work_units=*/0, 0.0});
  skewed.map_output_records += 1000000;
  // One giant group: adding machines cannot shrink the reduce makespan
  // below that group's cost.
  const double giant_cost = 1000000 * params.fallback_record_seconds;
  EXPECT_GE(ReduceMakespanSeconds(skewed, 1000, params), giant_cost);
}

TEST(ClusterModelTest, GroupOverheadPenalizesManySmallGroups) {
  // Same total records, 1000x the groups: the many-group job must simulate
  // slower — the mechanism behind grouping-on-one-string's win over
  // grouping-on-both-strings (Sec. V-A): per-pair workers pay per-worker
  // instantiation overhead for every pair. Compared on a single machine so
  // hash-assignment skew cannot mask the overhead term.
  const JobStats few_groups = MakeBalancedJob(100, 1000);
  const JobStats many_groups = MakeBalancedJob(100000, 1);
  const double t_few = SimulateJobSeconds(few_groups, 1);
  const double t_many = SimulateJobSeconds(many_groups, 1);
  EXPECT_LT(t_few, t_many);
}

TEST(ClusterModelTest, ZeroMachinesClampedToOne) {
  const JobStats job = MakeBalancedJob(10, 5);
  EXPECT_DOUBLE_EQ(SimulateJobSeconds(job, 0), SimulateJobSeconds(job, 1));
}

TEST(ClusterModelTest, PipelineIsSumOfJobs) {
  PipelineStats pipeline;
  pipeline.Add(MakeBalancedJob(100, 10));
  pipeline.Add(MakeBalancedJob(200, 10));
  const double total = SimulatePipelineSeconds(pipeline, 500);
  const double sum = SimulateJobSeconds(pipeline.jobs[0], 500) +
                     SimulateJobSeconds(pipeline.jobs[1], 500);
  EXPECT_DOUBLE_EQ(total, sum);
}

TEST(ClusterModelTest, FallbackWithoutGroupLoads) {
  JobStats job;
  job.input_records = 1000;
  job.map_output_records = 5000;
  job.num_groups = 50;
  job.executed_workers = 4;
  job.map_wall_seconds = 0.01;
  job.reduce_wall_seconds = 0.02;
  // No group_loads collected: the model assumes balance but still charges
  // group overhead and scales with machine count.
  const double makespan_10 = ReduceMakespanSeconds(job, 10);
  const double makespan_100 = ReduceMakespanSeconds(job, 100);
  EXPECT_GT(makespan_10, makespan_100);
  EXPECT_GT(SimulateJobSeconds(job, 10), 0.0);
}

TEST(ClusterModelTest, MakespanAtLeastAverage) {
  const JobStats job = MakeBalancedJob(5000, 13);
  ClusterModelParams params;
  for (uint64_t machines : {100u, 300u, 1000u}) {
    double total = 0;
    for (const auto& g : job.group_loads) {
      total += EffectiveGroupCostSeconds(g, params) +
               params.group_overhead_seconds / params.worker_slowdown;
    }
    EXPECT_GE(ReduceMakespanSeconds(job, machines, params) + 1e-12,
              total / static_cast<double>(machines));
  }
}

TEST(ClusterModelTest, PipelineAppendMergesJobs) {
  PipelineStats a, b;
  a.Add(MakeBalancedJob(10, 5));
  b.Add(MakeBalancedJob(20, 5));
  b.Add(MakeBalancedJob(30, 5));
  a.Append(b);
  EXPECT_EQ(a.jobs.size(), 3u);
}

}  // namespace
}  // namespace tsj
