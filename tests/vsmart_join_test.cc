#include "setjoin/vsmart_join.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "gtest/gtest.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<VsmartPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
}

// Reference multiset measures.
double RefSimilarity(const std::vector<uint32_t>& x,
                     const std::vector<uint32_t>& y,
                     MultisetMeasure measure) {
  std::map<uint32_t, uint32_t> cx, cy;
  for (uint32_t t : x) ++cx[t];
  for (uint32_t t : y) ++cy[t];
  double sum_min = 0, dot = 0, norm_x = 0, norm_y = 0;
  for (const auto& [t, c] : cx) {
    norm_x += static_cast<double>(c) * c;
    auto it = cy.find(t);
    const uint32_t other = it == cy.end() ? 0 : it->second;
    sum_min += std::min(c, other);
    dot += static_cast<double>(c) * other;
  }
  for (const auto& [t, c] : cy) norm_y += static_cast<double>(c) * c;
  switch (measure) {
    case MultisetMeasure::kJaccard: {
      const double denom = static_cast<double>(x.size() + y.size()) - sum_min;
      return denom <= 0 ? 1.0 : sum_min / denom;
    }
    case MultisetMeasure::kDice:
      return 2.0 * sum_min / static_cast<double>(x.size() + y.size());
    case MultisetMeasure::kCosine:
      return (norm_x == 0 || norm_y == 0)
                 ? 0.0
                 : dot / (std::sqrt(norm_x) * std::sqrt(norm_y));
  }
  return 0;
}

std::vector<std::vector<uint32_t>> RandomMultisets(Rng* rng, size_t n,
                                                   uint32_t universe) {
  std::vector<std::vector<uint32_t>> sets(n);
  for (auto& set : sets) {
    const size_t size = 1 + rng->Uniform(6);
    for (size_t i = 0; i < size; ++i) {
      set.push_back(static_cast<uint32_t>(rng->Uniform(universe)));
    }
  }
  return sets;
}

// gtest names each case after the raw bytes of its Config, so the struct has
// no padding for stray stack bytes to show through: `zero` fills the gap
// between the 4-byte measure and the double.
struct Config {
  MultisetMeasure measure;
  uint32_t zero = 0;
  double threshold;
};
static_assert(sizeof(Config) ==
              sizeof(MultisetMeasure) + sizeof(uint32_t) + sizeof(double));

class VsmartJoinTest : public ::testing::TestWithParam<Config> {};

TEST_P(VsmartJoinTest, MatchesBruteForce) {
  const MultisetMeasure measure = GetParam().measure;
  const double threshold = GetParam().threshold;
  Rng rng(800 + static_cast<uint64_t>(threshold * 100) +
          static_cast<uint64_t>(measure));
  for (int round = 0; round < 6; ++round) {
    const auto sets = RandomMultisets(&rng, 60, 15);
    PairSet expected;
    for (uint32_t i = 0; i < sets.size(); ++i) {
      for (uint32_t j = i + 1; j < sets.size(); ++j) {
        if (RefSimilarity(sets[i], sets[j], measure) >= threshold - 1e-12) {
          expected.emplace(i, j);
        }
      }
    }
    VsmartOptions options;
    options.measure = measure;
    EXPECT_EQ(ToSet(VsmartSelfJoin(sets, threshold, options)), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VsmartJoinTest,
    ::testing::Values(
        Config{.measure = MultisetMeasure::kJaccard, .threshold = 0.4},
        Config{.measure = MultisetMeasure::kJaccard, .threshold = 0.7},
        Config{.measure = MultisetMeasure::kDice, .threshold = 0.5},
        Config{.measure = MultisetMeasure::kDice, .threshold = 0.8},
        Config{.measure = MultisetMeasure::kCosine, .threshold = 0.6},
        Config{.measure = MultisetMeasure::kCosine, .threshold = 0.9}));

TEST(VsmartJoinTest, ReportedSimilaritiesAreExact) {
  Rng rng(801);
  const auto sets = RandomMultisets(&rng, 50, 12);
  VsmartOptions options;
  options.measure = MultisetMeasure::kJaccard;
  for (const auto& pair : VsmartSelfJoin(sets, 0.3, options)) {
    EXPECT_NEAR(pair.similarity,
                RefSimilarity(sets[pair.a], sets[pair.b],
                              MultisetMeasure::kJaccard),
                1e-12);
  }
}

TEST(VsmartJoinTest, MultiplicityMatters) {
  // {a, a} vs {a}: multiset Jaccard = 1/2, not 1 (set semantics).
  const std::vector<std::vector<uint32_t>> sets = {{7, 7}, {7}};
  const auto at_half = VsmartSelfJoin(sets, 0.5);
  ASSERT_EQ(at_half.size(), 1u);
  EXPECT_DOUBLE_EQ(at_half[0].similarity, 0.5);
  EXPECT_TRUE(VsmartSelfJoin(sets, 0.6).empty());
}

TEST(VsmartJoinTest, FrequencyCutoffDropsUbiquitousTokens) {
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < 10; ++i) {
    sets.push_back({1, 100 + i});  // token 1 in every set
  }
  VsmartOptions capped;
  capped.max_token_frequency = 5;
  EXPECT_TRUE(VsmartSelfJoin(sets, 0.4, capped).empty());
  // Without the cutoff every pair shares token 1 (Jaccard 1/3).
  EXPECT_EQ(VsmartSelfJoin(sets, 0.33).size(), 45u);
}

TEST(VsmartJoinTest, PipelineHasTwoPhases) {
  Rng rng(802);
  const auto sets = RandomMultisets(&rng, 40, 10);
  PipelineStats stats;
  VsmartSelfJoin(sets, 0.5, {}, &stats);
  ASSERT_EQ(stats.jobs.size(), 2u);
  EXPECT_EQ(stats.jobs[0].name, "vsmart-joining");
  EXPECT_EQ(stats.jobs[1].name, "vsmart-similarity");
}

TEST(VsmartJoinTest, EmptyInput) {
  EXPECT_TRUE(VsmartSelfJoin({}, 0.5).empty());
}

// ---- Fault parity with the tsj/hmj pipelines -------------------------------
// Same contract the spill fault tier pins for the raw engine: degraded
// write faults keep complete results and only surface through stats;
// lossy read faults fail the Status-returning entry point. Injector
// tests restore the CC_FAULT_SPEC configuration on exit (the injector
// is process-global).

TEST(VsmartJoinTest, SpillWriteFaultsDegradeWithoutResultLoss) {
  Rng rng(810);
  const auto sets = RandomMultisets(&rng, 80, 12);
  const auto reference = ToSet(VsmartSelfJoin(sets, 0.4));

  VsmartOptions options;
  options.enable_shuffle_spill = true;
  options.mapreduce.memory_budget_records = 16;
  ASSERT_TRUE(FaultInjector::Global().Configure("spill.write=every@1").ok());
  PipelineStats stats;
  auto result = RunVsmartSelfJoin(sets, 0.4, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);  // complete despite every write failing
  EXPECT_FALSE(stats.first_spill_error().ok());     // ...and reported
  EXPECT_TRUE(stats.first_spill_data_loss().ok());  // but not as loss
}

TEST(VsmartJoinTest, SpillReadFaultsFailTheStatusEntryPoint) {
  Rng rng(811);
  const auto sets = RandomMultisets(&rng, 80, 12);
  VsmartOptions options;
  options.enable_shuffle_spill = true;
  options.mapreduce.memory_budget_records = 16;
  options.mapreduce.num_workers = 1;
  ASSERT_TRUE(FaultInjector::Global().Configure("merge.read=once").ok());
  PipelineStats stats;
  auto result = RunVsmartSelfJoin(sets, 0.4, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());  // a torn run read is potential data loss
  EXPECT_FALSE(stats.first_spill_data_loss().ok());
  EXPECT_GT(stats.total_spilled_records(), 0u);
}

TEST(VsmartJoinTest, TaskFaultsAreRetriedLosslessly) {
  Rng rng(812);
  const auto sets = RandomMultisets(&rng, 80, 12);
  const auto reference = ToSet(VsmartSelfJoin(sets, 0.4));
  ASSERT_TRUE(FaultInjector::Global().Configure("task.map=once").ok());
  PipelineStats stats;
  auto result = RunVsmartSelfJoin(sets, 0.4, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);
  EXPECT_GE(stats.total_task_retries(), 1u);
}

TEST(VsmartJoinTest, PersistentTaskFaultsAbortWithRootCause) {
  Rng rng(813);
  const auto sets = RandomMultisets(&rng, 60, 12);
  ASSERT_TRUE(FaultInjector::Global().Configure("task.reduce=every@1").ok());
  PipelineStats stats;
  auto result = RunVsmartSelfJoin(sets, 0.4, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(stats.first_task_error().ok());
}

}  // namespace
}  // namespace tsj
