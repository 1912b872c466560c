#include "hmj/hmj.h"

#include <bit>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<TsjPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
}

// A pair found in several partitions must still be returned once: the
// hmj-dedup reducer drops the repeats, and ToSet would hide one.
void ExpectNoRepeatedPair(const std::vector<TsjPair>& pairs) {
  EXPECT_EQ(ToSet(pairs).size(), pairs.size()) << "a pair returned twice";
}

Corpus MakeCorpus(Rng* rng, size_t n) {
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    auto base = testutil::RandomTokenizedString(rng, 1, 3, 2, 7, 4);
    corpus.AddString(base);
    ++added;
    if (rng->Bernoulli(0.4) && added < n) {
      auto variant = base;
      const size_t tok = rng->Uniform(variant.size());
      variant[tok] = testutil::RandomEdit(rng, variant[tok], 4);
      corpus.AddString(variant);
      ++added;
    }
  }
  return corpus;
}

class HmjExactnessTest : public ::testing::TestWithParam<double> {};

TEST_P(HmjExactnessTest, MatchesBruteForce) {
  const double t = GetParam();
  Rng rng(42 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 3; ++round) {
    Corpus corpus = MakeCorpus(&rng, 60);
    const auto expected = BruteForceNsldSelfJoin(corpus, t);
    HmjOptions options;
    options.threshold = t;
    options.num_partitions = 8;
    options.seed = 17 + round;
    HybridMetricJoiner joiner(options);
    const auto actual = joiner.SelfJoin(corpus);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(ToSet(*actual), ToSet(expected)) << "T=" << t;
    ExpectNoRepeatedPair(*actual);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HmjExactnessTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3));

TEST(HmjTest, RecursiveRepartitioningPreservesCorrectness) {
  Rng rng(77);
  Corpus corpus = MakeCorpus(&rng, 120);
  const double t = 0.15;
  const auto expected = BruteForceNsldSelfJoin(corpus, t);
  HmjOptions options;
  options.threshold = t;
  options.num_partitions = 4;
  options.max_partition_size = 10;  // force deep recursion
  options.num_subpartitions = 3;
  options.max_recursion_depth = 5;
  const auto actual = HybridMetricJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(ToSet(*actual), ToSet(expected));
  ExpectNoRepeatedPair(*actual);
}

TEST(HmjTest, ExactAndCountedAlikeAtAnyWorkerCount) {
  // Each worker counts in its own slot and the run sums the slots once,
  // so the counters, like the (a, b, NSLD) set, must not depend on the
  // worker count; and every partition distance and verification runs on
  // token ids, so each NSLD must equal the byte-level oracle bit for bit.
  // A retried task counts its distances again: run disarmed.
  testutil::RestoreFaultSpecFromEnv restore;
  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  Rng rng(87);
  const Corpus corpus = MakeCorpus(&rng, 120);
  for (const TokenAligning aligning :
       {TokenAligning::kExact, TokenAligning::kGreedy}) {
    SCOPED_TRACE(aligning == TokenAligning::kExact ? "exact" : "greedy");
    HmjOptions options;
    options.threshold = 0.15;
    options.num_partitions = 4;
    options.max_partition_size = 10;  // force recursion
    options.num_subpartitions = 3;
    options.max_recursion_depth = 5;
    options.aligning = aligning;
    HmjRunInfo first_info;
    std::set<std::tuple<uint32_t, uint32_t, uint64_t>> first_pairs;
    for (const size_t workers : {1, 2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      options.mapreduce.num_workers = workers;
      HmjRunInfo info;
      const auto result = HybridMetricJoiner(options).SelfJoin(corpus, &info);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(info.completed);
      std::set<std::tuple<uint32_t, uint32_t, uint64_t>> pairs;
      for (const TsjPair& pair : *result) {
        const double oracle = Nsld(corpus.Materialize(pair.a),
                                   corpus.Materialize(pair.b), aligning);
        EXPECT_EQ(std::bit_cast<uint64_t>(pair.nsld),
                  std::bit_cast<uint64_t>(oracle))
            << pair.a << " " << pair.b;
        pairs.emplace(pair.a, pair.b, std::bit_cast<uint64_t>(pair.nsld));
      }
      if (workers == 1) {
        EXPECT_FALSE(pairs.empty());
        EXPECT_GT(info.distance_computations, 0u);
        EXPECT_GT(info.pivot_filtered, 0u);
        first_info = info;
        first_pairs = std::move(pairs);
        continue;
      }
      EXPECT_EQ(info.distance_computations, first_info.distance_computations);
      EXPECT_EQ(info.pivot_filtered, first_info.pivot_filtered);
      EXPECT_EQ(info.assignments, first_info.assignments);
      EXPECT_EQ(pairs, first_pairs);
    }
  }
}

TEST(HmjTest, SinglePartitionDegeneratesToQuadraticJoin) {
  Rng rng(78);
  Corpus corpus = MakeCorpus(&rng, 40);
  const double t = 0.2;
  HmjOptions options;
  options.threshold = t;
  options.num_partitions = 1;
  options.max_partition_size = 1u << 20;
  const auto actual = HybridMetricJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(ToSet(*actual), ToSet(BruteForceNsldSelfJoin(corpus, t)));
}

TEST(HmjTest, WorkLimitTriggersDnf) {
  Rng rng(79);
  Corpus corpus = MakeCorpus(&rng, 100);
  HmjOptions options;
  options.threshold = 0.2;
  options.work_limit = 50;  // absurdly small budget
  HmjRunInfo info;
  const auto result = HybridMetricJoiner(options).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(info.completed);
}

TEST(HmjTest, FatalTaskFaultFailsTheJoinWithItsRootCause) {
  // With no retries, one injected reduce fault aborts its job. The join
  // must fail with that root cause instead of returning the pairs the
  // other job found; disarmed, the same options join completely.
  testutil::RestoreFaultSpecFromEnv restore;
  Rng rng(85);
  const Corpus corpus = MakeCorpus(&rng, 60);
  HmjOptions options;
  options.threshold = 0.15;
  options.num_partitions = 8;
  options.mapreduce.max_task_retries = 0;

  ASSERT_TRUE(FaultInjector::Global().Configure("task.reduce=once").ok());
  const auto aborted = HybridMetricJoiner(options).SelfJoin(corpus);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(aborted.status().message().find("task.reduce"),
            std::string::npos)
      << aborted.status().ToString();

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  const auto joined = HybridMetricJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(ToSet(*joined), ToSet(BruteForceNsldSelfJoin(corpus, 0.15)));
}

TEST(HmjTest, PivotFilterSkipsComputations) {
  Rng rng(80);
  Corpus corpus = MakeCorpus(&rng, 150);
  HmjOptions options;
  options.threshold = 0.05;  // tight threshold: filter bites hard
  options.num_partitions = 4;
  HmjRunInfo info;
  ASSERT_TRUE(HybridMetricJoiner(options).SelfJoin(corpus, &info).ok());
  EXPECT_GT(info.pivot_filtered, 0u);
  EXPECT_TRUE(info.completed);
}

TEST(HmjTest, ComputesManyMoreDistancesThanOutputPairs) {
  // The structural weakness the paper exploits in Fig. 7: HMJ's
  // partitioning alone costs k NSLD evaluations per record.
  Rng rng(81);
  Corpus corpus = MakeCorpus(&rng, 100);
  HmjOptions options;
  options.threshold = 0.1;
  options.num_partitions = 16;
  HmjRunInfo info;
  const auto result = HybridMetricJoiner(options).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(info.distance_computations,
            corpus.size() * options.num_partitions);
}

TEST(HmjTest, EmptyCorpus) {
  Corpus corpus;
  HmjOptions options;
  const auto result = HybridMetricJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(HmjTest, RejectsInvalidOptions) {
  HmjOptions options;
  Corpus corpus;
  // NaN fails every comparison, so it must be rejected as well.
  for (const double bad :
       {1.5, 1.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    options.threshold = bad;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument)
        << bad;
    EXPECT_FALSE(HybridMetricJoiner(options).SelfJoin(corpus).ok()) << bad;
  }
  options.threshold = 0.1;
  options.num_partitions = 0;
  EXPECT_FALSE(HybridMetricJoiner(options).SelfJoin(corpus).ok());
}

TEST(HmjTest, ZeroSubpartitionsAreRejected) {
  // An oversized partition splits into num_subpartitions sub-partitions,
  // so zero of them would divide by zero. One partition of ten strings
  // with max_partition_size = 1 reaches that split: Validate must reject
  // the option before the join runs.
  Rng rng(84);
  Corpus corpus = MakeCorpus(&rng, 10);
  HmjOptions options;
  options.num_partitions = 1;
  options.max_partition_size = 1;
  options.num_subpartitions = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  const auto result = HybridMetricJoiner(options).SelfJoin(corpus);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(HmjTest, GreedyAligningNeverAddsPairs) {
  // Greedy SLD over-estimates distances, so greedy HMJ returns a subset of
  // the exact join (same one-sided guarantee as TSJ's approximation).
  Rng rng(83);
  Corpus corpus = MakeCorpus(&rng, 80);
  HmjOptions exact, greedy;
  exact.threshold = greedy.threshold = 0.2;
  exact.num_partitions = greedy.num_partitions = 8;
  greedy.aligning = TokenAligning::kGreedy;
  const auto exact_result = HybridMetricJoiner(exact).SelfJoin(corpus);
  const auto greedy_result = HybridMetricJoiner(greedy).SelfJoin(corpus);
  ASSERT_TRUE(exact_result.ok());
  ASSERT_TRUE(greedy_result.ok());
  const PairSet exact_set = ToSet(*exact_result);
  for (const auto& pair : ToSet(*greedy_result)) {
    EXPECT_TRUE(exact_set.count(pair));
  }
}

TEST(HmjTest, MemoryBudgetSpillsAndStaysExact) {
  // A set memory budget bounds both jobs' resident shuffle records, so
  // they spill to disk, and the join still equals the oracle.
  Rng rng(86);
  const Corpus corpus = MakeCorpus(&rng, 60);
  const double t = 0.15;
  HmjOptions options;
  options.threshold = t;
  options.num_partitions = 8;
  options.mapreduce.memory_budget_records = 16;
  HmjRunInfo info;
  const auto result = HybridMetricJoiner(options).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(info.pipeline.total_spilled_records(), 0u);
  EXPECT_EQ(ToSet(*result), ToSet(BruteForceNsldSelfJoin(corpus, t)));
}

TEST(HmjTest, RunInfoFieldsPopulated) {
  Rng rng(84);
  Corpus corpus = MakeCorpus(&rng, 60);
  HmjOptions options;
  options.threshold = 0.15;
  options.num_partitions = 8;
  HmjRunInfo info;
  ASSERT_TRUE(HybridMetricJoiner(options).SelfJoin(corpus, &info).ok());
  EXPECT_TRUE(info.completed);
  EXPECT_GT(info.distance_computations, 0u);
  EXPECT_GT(info.assignments, 0u);
  ASSERT_EQ(info.pipeline.jobs.size(), 2u);
  EXPECT_EQ(info.pipeline.jobs[0].name, "hmj-partition-join");
  EXPECT_EQ(info.pipeline.jobs[1].name, "hmj-dedup");
}

TEST(HmjTest, ResultIndependentOfSeed) {
  Rng rng(82);
  Corpus corpus = MakeCorpus(&rng, 80);
  const double t = 0.15;
  HmjOptions a, b;
  a.threshold = b.threshold = t;
  a.num_partitions = b.num_partitions = 8;
  a.seed = 1;
  b.seed = 999;
  const auto ra = HybridMetricJoiner(a).SelfJoin(corpus);
  const auto rb = HybridMetricJoiner(b).SelfJoin(corpus);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ToSet(*ra), ToSet(*rb));
}

}  // namespace
}  // namespace tsj
