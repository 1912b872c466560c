#include "massjoin/mass_join.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "distance/levenshtein.h"
#include "distance/normalized_levenshtein.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace tsj {
namespace {

// (a, b, NLD) of every pair, compared exactly.
using PairSet = std::set<std::tuple<uint32_t, uint32_t, double>>;

PairSet ToSet(const std::vector<NldPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b, p.nld);
  return s;
}

// The oracle: every pair i < j of `tokens` with NLD <= t.
PairSet BruteForce(const std::vector<std::string>& tokens, double t) {
  PairSet expected;
  for (uint32_t i = 0; i < tokens.size(); ++i) {
    for (uint32_t j = i + 1; j < tokens.size(); ++j) {
      const double nld = NormalizedLevenshtein(tokens[i], tokens[j]);
      if (nld <= t) expected.emplace(i, j, nld);
    }
  }
  return expected;
}

// RunMassJoinSelfNld's pairs; a failed join fails the calling test.
std::vector<NldPair> Join(const std::vector<std::string>& tokens, double t,
                          const MassJoinOptions& options = {},
                          PipelineStats* stats = nullptr) {
  auto result = RunMassJoinSelfNld(tokens, t, options, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : std::vector<NldPair>{};
}

std::vector<std::string> MakeTokens(Rng* rng, size_t n) {
  std::set<std::string> distinct;  // token spaces are distinct by nature
  while (distinct.size() < n) {
    distinct.insert(testutil::RandomString(rng, 2, 9, 3));
  }
  return std::vector<std::string>(distinct.begin(), distinct.end());
}

class MassJoinTest : public ::testing::TestWithParam<double> {};

TEST_P(MassJoinTest, MatchesBruteForce) {
  // Each round adds two empty texts, which join only each other, and a
  // repeated text, which joins its twin at NLD 0 even at T = 0.
  const double t = GetParam();
  Rng rng(4000 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 5; ++round) {
    std::vector<std::string> tokens = MakeTokens(&rng, 80);
    tokens.push_back("");
    tokens.push_back(tokens[rng.Uniform(80)]);
    tokens.push_back("");
    EXPECT_EQ(ToSet(Join(tokens, t)), BruteForce(tokens, t))
        << "T=" << t << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MassJoinTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.15, 0.225, 0.3,
                                           0.35));

// A variant of `base` with one or two random edits within its first 4
// characters and one or two within its last 4.
std::string EditBothEnds(Rng* rng, const std::string& base) {
  std::string head = base.substr(0, 4);
  std::string tail = base.substr(base.size() - 4);
  for (uint64_t e = 1 + rng->Uniform(2); e > 0; --e) {
    head = testutil::RandomEdit(rng, head, 3);
  }
  for (uint64_t e = 1 + rng->Uniform(2); e > 0; --e) {
    tail = testutil::RandomEdit(rng, tail, 3);
  }
  return head + base.substr(4, base.size() - 8) + tail;
}

// The shorter of the two cores left after trimming the common prefix and
// suffix: the pattern the Myers kernel runs on.
size_t TrimmedPatternLength(const std::string& x, const std::string& y) {
  const size_t shorter = std::min(x.size(), y.size());
  size_t prefix = 0;
  while (prefix < shorter && x[prefix] == y[prefix]) ++prefix;
  size_t suffix = 0;
  while (suffix < shorter - prefix &&
         x[x.size() - 1 - suffix] == y[y.size() - 1 - suffix]) {
    ++suffix;
  }
  return shorter - prefix - suffix;
}

TEST(MassJoinTest, LongTokensMatchBruteForce) {
  // Tokens of 60-150 characters: each round draws four shared bases and
  // eight variants of each, edited near both ends, so two variants of one
  // base differ by a few edits around a core of most of their length.
  // Past 64 characters that core runs the blocked Myers kernel in the
  // verify reducer, within the Lemma 8 bound and beyond it. Only small
  // thresholds: near T = 1 the substring role emits a signature count
  // that grows with the token (ROADMAP item 7(a)).
  Rng rng(4150);
  size_t blocked_pairs = 0;
  for (const double t : {0.05, 0.1}) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::string> tokens;
      for (int b = 0; b < 4; ++b) {
        const std::string base = testutil::RandomString(&rng, 64, 146, 3);
        for (int v = 0; v < 8; ++v) tokens.push_back(EditBothEnds(&rng, base));
      }
      tokens.push_back(tokens[rng.Uniform(tokens.size())]);
      const std::vector<NldPair> pairs = Join(tokens, t);
      EXPECT_EQ(ToSet(pairs), BruteForce(tokens, t))
          << "T=" << t << " round " << round;
      for (const NldPair& p : pairs) {
        if (TrimmedPatternLength(tokens[p.a], tokens[p.b]) > 64) {
          ++blocked_pairs;
        }
      }
    }
  }
  // Joined pairs, not only rejected ones, ran the blocked kernel.
  EXPECT_GT(blocked_pairs, 0u);
}

TEST(MassJoinTest, EmptyInput) {
  EXPECT_TRUE(Join({}, 0.1).empty());
}

TEST(MassJoinTest, ReportsPerJobStats) {
  Rng rng(5000);
  const auto tokens = MakeTokens(&rng, 50);
  PipelineStats stats;
  Join(tokens, 0.2, {}, &stats);
  ASSERT_EQ(stats.jobs.size(), 2u);
  EXPECT_EQ(stats.jobs[0].name, "massjoin-generate");
  EXPECT_EQ(stats.jobs[1].name, "massjoin-verify");
  EXPECT_EQ(stats.jobs[0].input_records, tokens.size());
  EXPECT_GT(stats.jobs[0].map_output_records, 0u);
}

TEST(MassJoinTest, SignatureLengthsStayInTheInputLengthRange) {
  // Near T = 1 Lemma 9 admits partners about |token| / (1 - T) long; at
  // T = 0.9 a 5-char token's segment role would range over lengths 5..50.
  // Every token here has length 5, so only the (5, 5) length pair can
  // match: per token, tau + 1 segment-role signatures and at most
  // 2 tau + 1 substring-role starts for each of its tau + 1 segments.
  constexpr double kT = 0.9;
  Rng rng(9400);
  std::set<std::string> distinct;
  while (distinct.size() < 40) {
    distinct.insert(testutil::RandomString(&rng, 5, 5, 3));
  }
  const std::vector<std::string> tokens(distinct.begin(), distinct.end());
  PipelineStats stats;
  EXPECT_EQ(ToSet(Join(tokens, kT, {}, &stats)), BruteForce(tokens, kT));
  const uint64_t tau = MaxLdForNld(kT, 5, /*x_is_shorter=*/true);
  ASSERT_EQ(stats.jobs[0].name, "massjoin-generate");
  EXPECT_LE(stats.jobs[0].map_output_records,
            tokens.size() * (tau + 1) * (2 * tau + 2));
}

TEST(MassJoinTest, EmptySegmentEmitsOneSubstringSignature) {
  // Near T = 1 the substring role cuts a short length into more segments
  // than it has characters, and every start of an empty segment selects
  // the same "" chunk, so the map emits it once per (length, segment).
  // A 20-char token and its 3- and 10-char prefixes: the record count
  // depends only on the lengths; one empty-chunk record per start made
  // 8,039 of them.
  constexpr double kT = 0.9;
  Rng rng(9500);
  const std::string token = testutil::RandomString(&rng, 20, 20, 26);
  const std::vector<std::string> tokens = {token, token.substr(0, 3),
                                           token.substr(0, 10)};
  PipelineStats stats;
  EXPECT_EQ(ToSet(Join(tokens, kT, {}, &stats)), BruteForce(tokens, kT));
  ASSERT_EQ(stats.jobs[0].name, "massjoin-generate");
  EXPECT_EQ(stats.jobs[0].map_output_records, 3905u);
}

TEST(MassJoinTest, ResultIndependentOfWorkerCount) {
  Rng rng(6000);
  const auto tokens = MakeTokens(&rng, 70);
  MassJoinOptions one_worker, many_workers;
  one_worker.mapreduce.num_workers = 1;
  many_workers.mapreduce.num_workers = 8;
  many_workers.mapreduce.num_partitions = 7;
  EXPECT_EQ(ToSet(Join(tokens, 0.15, one_worker)),
            ToSet(Join(tokens, 0.15, many_workers)));
}

TEST(MassJoinTest, NoDuplicateOrSelfPairs) {
  Rng rng(7000);
  const auto tokens = MakeTokens(&rng, 90);
  const auto pairs = Join(tokens, 0.25);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const auto& p : pairs) {
    EXPECT_LT(p.a, p.b);
    EXPECT_TRUE(seen.emplace(p.a, p.b).second) << "duplicate pair";
  }
}

// ---- Fault parity with the tsj/hmj pipelines -------------------------------
// Same contract the spill fault tier pins for the raw engine: degraded
// write faults keep complete results and only surface through stats;
// lossy read faults fail the join with their Status. Injector
// tests restore the CC_FAULT_SPEC configuration on exit (the injector
// is process-global).

TEST(MassJoinTest, SpillWriteFaultsDegradeWithoutResultLoss) {
  Rng rng(9000);
  const auto tokens = MakeTokens(&rng, 60);
  const auto reference = ToSet(Join(tokens, 0.2));

  MassJoinOptions options;
  options.mapreduce.memory_budget_records = 16;
  ASSERT_TRUE(FaultInjector::Global().Configure("spill.write=every@1").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);  // complete despite every write failing
  EXPECT_FALSE(stats.first_spill_error().ok());      // ...and reported
  EXPECT_TRUE(stats.first_spill_data_loss().ok());   // but not as loss
}

TEST(MassJoinTest, SpillReadFaultsFailTheStatusEntryPoint) {
  Rng rng(9100);
  const auto tokens = MakeTokens(&rng, 60);
  MassJoinOptions options;
  options.mapreduce.memory_budget_records = 16;
  options.mapreduce.num_workers = 1;
  ASSERT_TRUE(FaultInjector::Global().Configure("merge.read=once").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());  // a torn run read is potential data loss
  EXPECT_FALSE(stats.first_spill_data_loss().ok());
  EXPECT_GT(stats.total_spilled_records(), 0u);
}

TEST(MassJoinTest, TaskFaultsAreRetriedLosslesslyInTheFusedEngine) {
  Rng rng(9200);
  const auto tokens = MakeTokens(&rng, 60);
  const auto reference = ToSet(Join(tokens, 0.2));
  ASSERT_TRUE(
      FaultInjector::Global().Configure("task.map=once;task.reduce=once@2")
          .ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);
  EXPECT_GE(stats.total_task_retries(), 2u);
  EXPECT_EQ(stats.total_tasks_cancelled(), 0u);
}

TEST(MassJoinTest, PersistentTaskFaultsAbortWithRootCause) {
  Rng rng(9300);
  const auto tokens = MakeTokens(&rng, 40);
  ASSERT_TRUE(FaultInjector::Global().Configure("task.reduce=every@1").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(stats.first_task_error().ok());
}

TEST(MassJoinTest, StatusEntryPointRejectsThresholdOutsideUnitInterval) {
  const std::vector<std::string> tokens = {"abc", "abd", "xyz"};
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.0}) {
    const auto result = RunMassJoinSelfNld(tokens, bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(MassJoinTest, ReportedDistancesAreExact) {
  Rng rng(8000);
  const auto tokens = MakeTokens(&rng, 60);
  for (const auto& p : Join(tokens, 0.3)) {
    EXPECT_EQ(p.ld, Levenshtein(tokens[p.a], tokens[p.b]));
    EXPECT_DOUBLE_EQ(p.nld, NldFromLd(p.ld, tokens[p.a].size(),
                                      tokens[p.b].size()));
  }
}

}  // namespace
}  // namespace tsj
