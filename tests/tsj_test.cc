#include "tsj/tsj.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "distance/normalized_levenshtein.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "massjoin/mass_join.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<TsjPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
}

// (pair, NSLD) as an order-free set, NSLD compared bit for bit.
using PairNsldSet = std::set<std::tuple<uint32_t, uint32_t, double>>;

PairNsldSet ToPairNsldSet(const std::vector<TsjPair>& pairs) {
  PairNsldSet set;
  for (const TsjPair& p : pairs) set.emplace(p.a, p.b, p.nsld);
  return set;
}

// A small corpus with planted near-duplicate tokenized strings.
Corpus MakeCorpus(Rng* rng, size_t n) {
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    auto base = testutil::RandomTokenizedString(rng, 1, 3, 2, 7, 4);
    corpus.AddString(base);
    ++added;
    const size_t copies = rng->Uniform(3);
    for (size_t c = 0; c < copies && added < n; ++c) {
      auto variant = base;
      // Edit one character of one token, sometimes shuffle.
      const size_t tok = rng->Uniform(variant.size());
      variant[tok] = testutil::RandomEdit(rng, variant[tok], 4);
      if (rng->Bernoulli(0.5)) rng->Shuffle(&variant);
      corpus.AddString(variant);
      ++added;
    }
  }
  return corpus;
}

TsjOptions Lossless(double t) {
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;  // no high-frequency dropping
  options.matching = TokenMatching::kFuzzy;
  options.aligning = TokenAligning::kExact;
  return options;
}

TEST(TsjOptionsTest, ValidateRejectsBadThreshold) {
  TsjOptions options;
  // NaN fails every comparison, so it must be rejected as well.
  for (const double bad :
       {1.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    options.threshold = bad;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument)
        << bad;
  }
  options.threshold = 0.5;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(TsjOptionsTest, ValidateRejectsZeroMaxFrequency) {
  TsjOptions options;
  options.max_token_frequency = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TsjTest, SelfJoinRejectsInvalidOptions) {
  for (const double bad : {2.0, std::numeric_limits<double>::quiet_NaN()}) {
    TsjOptions options;
    options.threshold = bad;
    TokenizedStringJoiner joiner(options);
    Corpus corpus;
    EXPECT_FALSE(joiner.SelfJoin(corpus).ok()) << bad;
    EXPECT_FALSE(joiner.Join(corpus, corpus).ok()) << bad;
  }
}

class TsjExactnessTest : public ::testing::TestWithParam<double> {};

TEST_P(TsjExactnessTest, FuzzyModeMatchesBruteForce) {
  // The central correctness claim: with fuzzy matching, exact aligning and
  // no high-frequency dropping, TSJ computes the exact NSLD join.
  const double t = GetParam();
  Rng rng(100 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 4; ++round) {
    Corpus corpus = MakeCorpus(&rng, 60);
    const auto expected = BruteForceNsldSelfJoin(corpus, t);
    TokenizedStringJoiner joiner(Lossless(t));
    const auto actual = joiner.SelfJoin(corpus);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(ToSet(*actual), ToSet(expected)) << "T=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TsjExactnessTest,
                         ::testing::Values(0.025, 0.1, 0.15, 0.225));

TEST(TsjTest, ReportedNsldValuesAreExact) {
  Rng rng(321);
  Corpus corpus = MakeCorpus(&rng, 50);
  TokenizedStringJoiner joiner(Lossless(0.2));
  const auto result = joiner.SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  for (const TsjPair& p : *result) {
    const double expected =
        Nsld(corpus.Materialize(p.a), corpus.Materialize(p.b));
    EXPECT_DOUBLE_EQ(p.nsld, expected);
    EXPECT_LE(p.nsld, 0.2);
    EXPECT_LT(p.a, p.b);
  }
}

TEST(TsjTest, DedupStrategiesProduceIdenticalResults) {
  Rng rng(654);
  Corpus corpus = MakeCorpus(&rng, 80);
  TsjOptions one = Lossless(0.15);
  one.dedup = DedupStrategy::kGroupOnOneString;
  TsjOptions both = Lossless(0.15);
  both.dedup = DedupStrategy::kGroupOnBothStrings;
  const auto r1 = TokenizedStringJoiner(one).SelfJoin(corpus);
  const auto r2 = TokenizedStringJoiner(both).SelfJoin(corpus);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ToSet(*r1), ToSet(*r2));
}

TEST(TsjTest, GroupingStrategiesDifferInGroupCounts) {
  // grouping-on-both-strings instantiates one reduce group per pair;
  // grouping-on-one-string one per string — the paper's Fig. 1 mechanism.
  Rng rng(655);
  Corpus corpus = MakeCorpus(&rng, 80);
  TsjOptions one = Lossless(0.15);
  TsjOptions both = Lossless(0.15);
  both.dedup = DedupStrategy::kGroupOnBothStrings;
  TsjRunInfo info_one, info_both;
  ASSERT_TRUE(TokenizedStringJoiner(one).SelfJoin(corpus, &info_one).ok());
  ASSERT_TRUE(TokenizedStringJoiner(both).SelfJoin(corpus, &info_both).ok());
  const JobStats& verify_one = info_one.pipeline.jobs.back();
  const JobStats& verify_both = info_both.pipeline.jobs.back();
  EXPECT_GE(verify_both.num_groups, verify_one.num_groups);
  EXPECT_EQ(info_one.distinct_candidates, info_both.distinct_candidates);
}

TEST(TsjTest, FiltersAreLossless) {
  // The filters prune candidates, and the pruned run still joins exactly
  // the unfiltered oracle's pairs with the same NSLD values.
  Rng rng(987);
  Corpus corpus = MakeCorpus(&rng, 70);
  TsjRunInfo info;
  const auto result =
      TokenizedStringJoiner(Lossless(0.2)).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToPairNsldSet(*result),
            ToPairNsldSet(BruteForceNsldSelfJoin(corpus, 0.2)));
  // The filters actually did something.
  EXPECT_GT(info.length_filtered + info.histogram_filtered, 0u);
}

TEST(TsjTest, LengthWindowAdmitsPairsOnTheBound) {
  // At T = 0.5 both marked pairs sit exactly on the Lemma 6 bound (1 - 3/6
  // and 1 - 6/12) and have NSLD exactly 0.5, so the length window must
  // admit them. {ab, c} ~ {ab, cdef} shares the token "ab" (shared-token
  // path); {abcdef} ~ {abcdefghijkl} shares none, only a similar-token
  // pair of NLD 0.5 (similar-token path). One ulp below 0.5 the window
  // must skip the shared-token pair.
  Corpus corpus;  // self-join pairs (0, 1) and (2, 3)
  corpus.AddString({"ab", "c"});
  corpus.AddString({"ab", "cdef"});
  corpus.AddString({"abcdef"});
  corpus.AddString({"abcdefghijkl"});
  Corpus r_corpus;  // R x P pairs (0, 0) and (1, 1)
  r_corpus.AddString({"ab", "c"});
  r_corpus.AddString({"abcdef"});
  Corpus p_corpus;
  p_corpus.AddString({"ab", "cdef"});
  p_corpus.AddString({"abcdefghijkl"});
  for (const double t : {0.5, std::nextafter(0.5, 0.0)}) {
    const PairNsldSet self_oracle =
        ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t));
    const PairNsldSet rp_oracle =
        ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t));
    const size_t on_bound = t == 0.5 ? 1 : 0;
    EXPECT_EQ(self_oracle.count({0u, 1u, 0.5}), on_bound);
    EXPECT_EQ(self_oracle.count({2u, 3u, 0.5}), on_bound);
    EXPECT_EQ(rp_oracle.count({0u, 0u, 0.5}), on_bound);
    EXPECT_EQ(rp_oracle.count({1u, 1u, 0.5}), on_bound);
    for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                      DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options = Lossless(t);
      options.dedup = dedup;
      TsjRunInfo self_info;
      TsjRunInfo rp_info;
      const auto self =
          TokenizedStringJoiner(options).SelfJoin(corpus, &self_info);
      const auto rp =
          TokenizedStringJoiner(options).Join(r_corpus, p_corpus, &rp_info);
      ASSERT_TRUE(self.ok());
      ASSERT_TRUE(rp.ok());
      EXPECT_EQ(ToPairNsldSet(*self), self_oracle) << "t=" << t;
      EXPECT_EQ(ToPairNsldSet(*rp), rp_oracle) << "t=" << t;
      if (on_bound == 0) {
        EXPECT_GT(self_info.length_filtered, 0u);
        EXPECT_GT(rp_info.length_filtered, 0u);
      }
    }
  }
}

TEST(TsjTest, BagFilterAdmitsPairsOnTheBound) {
  // Both marked pairs have a bag bound equal to their SLD, and NSLD
  // exactly T = NsldFromSld(1, 5, 5) = 2/11, so the bag filter must admit
  // them at T. {xy, abc} ~ {xy, abd} shares the token "xy" (shared-token
  // path; bound and SLD 1, lengths 5). {abcdefg, xyz} ~ {abcdefh, xyw}
  // shares none, only the similar-token pair abcdefg ~ abcdefh of NLD
  // 2/15 (similar-token path; bound and SLD 2, lengths 10). One ulp below
  // T the length window still admits both (equal lengths), so the bag
  // filter must skip both, one emission on each path.
  const double on_bound = NsldFromSld(1, 5, 5);
  ASSERT_EQ(on_bound, NsldFromSld(2, 10, 10));
  Corpus corpus;  // self-join pairs (0, 1) and (2, 3)
  corpus.AddString({"xy", "abc"});
  corpus.AddString({"xy", "abd"});
  corpus.AddString({"abcdefg", "xyz"});
  corpus.AddString({"abcdefh", "xyw"});
  Corpus r_corpus;  // R x P pairs (0, 0) and (1, 1)
  r_corpus.AddString({"xy", "abc"});
  r_corpus.AddString({"abcdefg", "xyz"});
  Corpus p_corpus;
  p_corpus.AddString({"xy", "abd"});
  p_corpus.AddString({"abcdefh", "xyw"});
  for (const double t : {on_bound, std::nextafter(on_bound, 0.0)}) {
    const bool at_bound = t == on_bound;
    const PairNsldSet self_expected =
        at_bound ? PairNsldSet{{0u, 1u, on_bound}, {2u, 3u, on_bound}}
                 : PairNsldSet{};
    const PairNsldSet rp_expected =
        at_bound ? PairNsldSet{{0u, 0u, on_bound}, {1u, 1u, on_bound}}
                 : PairNsldSet{};
    EXPECT_EQ(ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t)),
              self_expected);
    EXPECT_EQ(ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t)),
              rp_expected);
    for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                      DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options = Lossless(t);
      options.dedup = dedup;
      TsjRunInfo self_info;
      TsjRunInfo rp_info;
      const auto self =
          TokenizedStringJoiner(options).SelfJoin(corpus, &self_info);
      const auto rp =
          TokenizedStringJoiner(options).Join(r_corpus, p_corpus, &rp_info);
      ASSERT_TRUE(self.ok());
      ASSERT_TRUE(rp.ok());
      const std::string context = "t=" + std::to_string(t) + " dedup=" +
                                  std::to_string(static_cast<int>(dedup));
      EXPECT_EQ(ToPairNsldSet(*self), self_expected) << context;
      EXPECT_EQ(ToPairNsldSet(*rp), rp_expected) << context;
      EXPECT_EQ(self_info.length_filtered, 0u) << context;
      EXPECT_EQ(rp_info.length_filtered, 0u) << context;
      EXPECT_EQ(self_info.bag_filtered, at_bound ? 0u : 2u) << context;
      EXPECT_EQ(rp_info.bag_filtered, at_bound ? 0u : 2u) << context;
      EXPECT_EQ(self_info.shared_token_candidates, at_bound ? 1u : 0u)
          << context;
      EXPECT_EQ(self_info.similar_token_candidates, at_bound ? 1u : 0u)
          << context;
    }
  }
}

TEST(TsjTest, SimilarTokenPruneKeepsTokensOnTheBound) {
  // {abcdefghi} ~ {abcdefghij} shares no token, so only the similar-token
  // path can find it. Its NSLD is exactly 0.1, and so is
  // MinNldToDifferentString(9): at T = 0.1 MassJoin must still see
  // "abcdefghi". One ulp below, the token is left out and the pair does
  // not join.
  ASSERT_EQ(NsldFromSld(1, 9, 10), 0.1);
  ASSERT_EQ(MinNldToDifferentString(9), 0.1);
  Corpus corpus;
  corpus.AddString({"abcdefghi"});
  corpus.AddString({"abcdefghij"});
  Corpus r_corpus;
  r_corpus.AddString({"abcdefghi"});
  Corpus p_corpus;
  p_corpus.AddString({"abcdefghij"});
  for (const double t : {0.1, std::nextafter(0.1, 0.0)}) {
    const bool on_bound = t == 0.1;
    const PairNsldSet expected =
        on_bound ? PairNsldSet{{0u, 1u, 0.1}} : PairNsldSet{};
    const PairNsldSet rp_expected =
        on_bound ? PairNsldSet{{0u, 0u, 0.1}} : PairNsldSet{};
    EXPECT_EQ(ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t)), expected);
    EXPECT_EQ(ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t)),
              rp_expected);
    for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                      DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options = Lossless(t);
      options.dedup = dedup;
      TsjRunInfo self_info;
      TsjRunInfo rp_info;
      const auto self =
          TokenizedStringJoiner(options).SelfJoin(corpus, &self_info);
      const auto rp =
          TokenizedStringJoiner(options).Join(r_corpus, p_corpus, &rp_info);
      ASSERT_TRUE(self.ok());
      ASSERT_TRUE(rp.ok());
      const std::string context = "t=" + std::to_string(t) + " dedup=" +
                                  std::to_string(static_cast<int>(dedup));
      EXPECT_EQ(ToPairNsldSet(*self), expected) << context;
      EXPECT_EQ(ToPairNsldSet(*rp), rp_expected) << context;
      EXPECT_EQ(self_info.similar_token_pairs, on_bound ? 1u : 0u)
          << context;
      EXPECT_EQ(rp_info.similar_token_pairs, on_bound ? 1u : 0u) << context;
    }
  }
}

TEST(TsjTest, MassJoinSeesOnlyTokensWithAPartnerInReach) {
  // Token lengths span 0-30, so each threshold of the sweep leaves some
  // tokens out of MassJoin and keeps others. Leaving them out loses no
  // similar pair: TSJ's count equals MassJoin's over every surviving
  // distinct token. MassJoin's input is exactly the tokens
  // MinNldToDifferentString keeps, none at T = 0, where MassJoin still
  // runs.
  Rng rng(5151);
  Corpus corpus;
  corpus.AddString({"", testutil::RandomString(&rng, 30, 30, 3)});
  for (int i = 0; i < 40; ++i) {
    TokenizedString base = testutil::RandomTokenizedString(&rng, 1, 3, 0, 30,
                                                           /*alphabet=*/3);
    corpus.AddString(base);
    const size_t edited = rng.Uniform(base.size());
    base[edited] = testutil::RandomEdit(&rng, base[edited], 3);
    corpus.AddString(base);
  }
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  for (const double t : {0.0, 0.05, 0.1, 0.225, 0.5, 0.9}) {
    const TsjOptions options = Lossless(t);
    TsjRunInfo info;
    const auto joined = TokenizedStringJoiner(options).SelfJoin(corpus, &info);
    ASSERT_TRUE(joined.ok());
    std::vector<std::string> surviving;
    uint64_t kept = 0;
    for (TokenId token = 0; token < corpus.num_distinct_tokens(); ++token) {
      if (frequency[token] > options.max_token_frequency) continue;
      surviving.push_back(corpus.token_text(token));
      if (MinNldToDifferentString(corpus.token_length(token)) <= t) ++kept;
    }
    const std::string context = "t=" + std::to_string(t);
    const auto unpruned = RunMassJoinSelfNld(surviving, t);
    ASSERT_TRUE(unpruned.ok()) << context;
    EXPECT_EQ(info.similar_token_pairs, unpruned->size()) << context;
    const auto generate = std::find_if(
        info.pipeline.jobs.begin(), info.pipeline.jobs.end(),
        [](const JobStats& job) { return job.name == "massjoin-generate"; });
    ASSERT_NE(generate, info.pipeline.jobs.end()) << context;
    EXPECT_EQ(generate->input_records, kept) << context;
    EXPECT_EQ(info.pipeline.jobs.size(), 4u) << context;
    if (t == 0.0) {
      EXPECT_EQ(kept, 0u);
    }
    if (t == 0.1) {
      EXPECT_LT(kept, surviving.size());
    }
    EXPECT_EQ(ToPairNsldSet(*joined),
              ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t)))
        << context;
  }
}

TEST(TsjTest, SimilarTokenExpansionCountsARepeatedTokenOnce) {
  // "abcdefghij" ~ "abcdefghik" is a similar-token pair (NLD 2/21). String
  // 0 holds "abcdefghij" twice, but its posting list must hold string 0
  // once, so expanding the pair emits (0, 1) once in both join forms.
  Corpus corpus;
  corpus.AddString({"abcdefghij", "abcdefghij"});
  corpus.AddString({"abcdefghik", "abcdefghij"});
  Corpus r_corpus;
  r_corpus.AddString({"abcdefghij", "abcdefghij"});
  Corpus p_corpus;
  p_corpus.AddString({"abcdefghik", "abcdefghij"});
  for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                    DedupStrategy::kGroupOnBothStrings}) {
    TsjOptions options = Lossless(0.1);
    options.dedup = dedup;
    TsjRunInfo self_info;
    TsjRunInfo rp_info;
    const auto self =
        TokenizedStringJoiner(options).SelfJoin(corpus, &self_info);
    const auto rp =
        TokenizedStringJoiner(options).Join(r_corpus, p_corpus, &rp_info);
    ASSERT_TRUE(self.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(self_info.similar_token_pairs, 1u);
    EXPECT_EQ(rp_info.similar_token_pairs, 1u);
    EXPECT_EQ(self_info.similar_token_candidates, 1u);
    EXPECT_EQ(rp_info.similar_token_candidates, 1u);
    EXPECT_EQ(ToPairNsldSet(*self),
              ToPairNsldSet(BruteForceNsldSelfJoin(corpus, 0.1)));
    EXPECT_EQ(ToPairNsldSet(*rp), ToPairNsldSet(testutil::BruteForceRP(
                                      r_corpus, p_corpus, 0.1)));
    EXPECT_EQ(self->size(), 1u);
  }
}

TEST(TsjTest, ApproximationsNeverAddPairs) {
  // Precision stays 1.0 for every approximation (Sec. V-B.2): greedy and
  // exact-token results are subsets of the fuzzy/exact reference.
  Rng rng(1111);
  Corpus corpus = MakeCorpus(&rng, 80);
  const double t = 0.2;
  const auto reference = TokenizedStringJoiner(Lossless(t)).SelfJoin(corpus);
  ASSERT_TRUE(reference.ok());
  const PairSet ref_set = ToSet(*reference);

  TsjOptions greedy = Lossless(t);
  greedy.aligning = TokenAligning::kGreedy;
  TsjOptions exact_token = Lossless(t);
  exact_token.matching = TokenMatching::kExact;
  for (const TsjOptions& options : {greedy, exact_token}) {
    const auto result = TokenizedStringJoiner(options).SelfJoin(corpus);
    ASSERT_TRUE(result.ok());
    for (const auto& pair : ToSet(*result)) {
      EXPECT_TRUE(ref_set.count(pair)) << pair.first << "," << pair.second;
    }
  }
}

TEST(TsjTest, ExactTokenMatchingSkipsMassJoin) {
  Rng rng(2222);
  Corpus corpus = MakeCorpus(&rng, 50);
  TsjOptions options = Lossless(0.15);
  options.matching = TokenMatching::kExact;
  TsjRunInfo info;
  ASSERT_TRUE(TokenizedStringJoiner(options).SelfJoin(corpus, &info).ok());
  EXPECT_EQ(info.similar_token_pairs, 0u);
  // Pipeline: shared-token + dedup/verify only (no massjoin jobs).
  EXPECT_EQ(info.pipeline.jobs.size(), 2u);
}

TEST(TsjTest, FuzzyPipelineHasFourJobs) {
  Rng rng(2223);
  Corpus corpus = MakeCorpus(&rng, 50);
  TsjRunInfo info;
  ASSERT_TRUE(
      TokenizedStringJoiner(Lossless(0.15)).SelfJoin(corpus, &info).ok());
  // shared-token, massjoin-generate, massjoin-verify, dedup-verify.
  EXPECT_EQ(info.pipeline.jobs.size(), 4u);
  EXPECT_EQ(info.pipeline.jobs[0].name, "tsj-shared-token");
}

TEST(TsjTest, HighFrequencyTokenDroppingLosesOnlySharedPairs) {
  // Build a corpus where "john" is ubiquitous: with M small, pairs that
  // are similar only through "john" are dropped; recall < 1, precision 1.
  Corpus corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.AddString({"john", "u" + std::to_string(i) + "xyzq"});
  }
  corpus.AddString({"alice", "wonderland"});
  corpus.AddString({"alice", "wonderlanb"});
  const double t = 0.35;
  TsjOptions unlimited = Lossless(t);
  TsjOptions capped = Lossless(t);
  capped.max_token_frequency = 5;  // "john" (30 strings) is dropped
  const auto full = TokenizedStringJoiner(unlimited).SelfJoin(corpus);
  const auto reduced = TokenizedStringJoiner(capped).SelfJoin(corpus);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(reduced.ok());
  TsjRunInfo info;
  ASSERT_TRUE(TokenizedStringJoiner(capped).SelfJoin(corpus, &info).ok());
  EXPECT_GT(info.dropped_tokens, 0u);
  // Precision 1: everything found is truly similar.
  const PairSet full_set = ToSet(*full);
  for (const auto& pair : ToSet(*reduced)) {
    EXPECT_TRUE(full_set.count(pair));
  }
  // The alice pair survives (its tokens are rare).
  EXPECT_TRUE(ToSet(*reduced).count({30u, 31u}));
}

TEST(TsjTest, EmptyCorpus) {
  Corpus corpus;
  const auto result = TokenizedStringJoiner(Lossless(0.1)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(TsjTest, EmptyTokenizedStringsPairTogether) {
  Corpus corpus;
  corpus.AddString({});
  corpus.AddString({});
  corpus.AddString({"bob"});
  const auto result = TokenizedStringJoiner(Lossless(0.1)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  // NSLD(empty, empty) = 0; empty vs "bob" = 1.
  EXPECT_EQ(ToSet(*result), (PairSet{{0u, 1u}}));
}

TEST(TsjTest, BlankStringsPairWithTokenFreeOnes) {
  // A string whose tokens are all empty has aggregate length 0, so it is
  // identical (NSLD 0) to a token-free string, although only it has a
  // token to be generated through. Both join forms must find every such
  // pair.
  Corpus corpus;
  corpus.AddString({});
  corpus.AddString({""});
  corpus.AddString({"", ""});
  corpus.AddString({"", "bob"});
  const std::vector<TsjPair> expected = BruteForceNsldSelfJoin(corpus, 0.1);
  EXPECT_EQ(ToSet(expected), (PairSet{{0u, 1u}, {0u, 2u}, {1u, 2u}}));
  Corpus r_corpus;
  r_corpus.AddString({});
  r_corpus.AddString({""});
  Corpus p_corpus;
  p_corpus.AddString({"", ""});
  p_corpus.AddString({});
  EXPECT_EQ(ToSet(testutil::BruteForceRP(r_corpus, p_corpus, 0.1)),
            (PairSet{{0u, 0u}, {0u, 1u}, {1u, 0u}, {1u, 1u}}));
  for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                    DedupStrategy::kGroupOnBothStrings}) {
    TsjOptions options = Lossless(0.1);
    options.dedup = dedup;
    const auto self = TokenizedStringJoiner(options).SelfJoin(corpus);
    ASSERT_TRUE(self.ok());
    EXPECT_EQ(self->size(), expected.size());
    EXPECT_EQ(ToSet(*self), ToSet(expected));
    const auto rp = TokenizedStringJoiner(options).Join(r_corpus, p_corpus);
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rp->size(), 4u);
    EXPECT_EQ(ToSet(*rp), (PairSet{{0u, 0u}, {0u, 1u}, {1u, 0u}, {1u, 1u}}));
  }
}

TEST(TsjTest, CopiesOfANameJoinLikeBruteForce) {
  // TSJ generates and verifies one representative per identical token
  // sequence and expands its results by class. These classes sit at its
  // edges: names with 2-6 exact copies, near-copies joined only through a
  // similar token, a reorder (two classes), six copies of a one-token name
  // whose token is dropped at M = 8, a class with one dropped and one
  // surviving token, blank copies and token-free copies. The ids
  // interleave, so a member pair can run against its representatives'
  // order. Every run must return brute force's pairs under the cutoff's
  // rule, each once.
  const std::vector<std::pair<TokenizedString, int>> names = {
      {{"anna", "lee"}, 2},
      {{"anna", "lea"}, 3},
      {{"maria", "garcia", "lopez"}, 4},
      {{"maria", "garcia", "lopes"}, 2},
      {{"wei", "zhang"}, 5},
      {{"wei", "zhan"}, 1},
      {{"abcdefghij"}, 2},
      {{"abcdefghik"}, 3},
      {{"barak", "obama"}, 2},
      {{"obama", "barak"}, 2},
      {{"smith"}, 6},
      {{"smith", "kowalski"}, 3},
      {{""}, 3},
      {{"", ""}, 2},
      {{}, 3},
  };
  std::vector<TokenizedString> order;
  for (const auto& [name, copies] : names) {
    for (int c = 0; c < copies; ++c) order.push_back(name);
  }
  Rng rng(2718);
  rng.Shuffle(&order);
  Corpus corpus;
  std::vector<StringId> smiths;
  for (const TokenizedString& name : order) {
    const StringId id = corpus.AddString(name);
    if (name == TokenizedString{"smith"}) smiths.push_back(id);
  }
  std::set<std::vector<TokenId>> sequences;
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    const std::span<const TokenId> tokens = corpus.tokens(s);
    sequences.insert(std::vector<TokenId>(tokens.begin(), tokens.end()));
  }
  std::map<std::string, uint32_t> frequency_of;
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  for (TokenId token = 0; token < corpus.num_distinct_tokens(); ++token) {
    frequency_of[corpus.token_text(token)] = frequency[token];
  }
  ASSERT_EQ(frequency_of.at("smith"), 9u);
  const double t = 0.15;
  const std::vector<TsjPair> oracle = BruteForceNsldSelfJoin(corpus, t);
  for (const uint32_t m : {8u, 9u}) {
    const auto survives = [&](const std::string& text) {
      return frequency_of.at(text) <= m;
    };
    for (const TokenMatching matching :
         {TokenMatching::kFuzzy, TokenMatching::kExact}) {
      PairNsldSet expected;
      for (const TsjPair& p : oracle) {
        if (testutil::JoinableUnderCutoff(corpus.Materialize(p.a),
                                          corpus.Materialize(p.b), matching,
                                          t, survives)) {
          expected.emplace(p.a, p.b, p.nsld);
        }
      }
      for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                        DedupStrategy::kGroupOnBothStrings}) {
        for (const size_t workers : {size_t{1}, size_t{4}}) {
          TsjOptions options = Lossless(t);
          options.max_token_frequency = m;
          options.matching = matching;
          options.dedup = dedup;
          options.mapreduce.num_workers = workers;
          TsjRunInfo info;
          const auto result =
              TokenizedStringJoiner(options).SelfJoin(corpus, &info);
          ASSERT_TRUE(result.ok());
          const std::string context =
              "M=" + std::to_string(m) +
              " matching=" + std::to_string(static_cast<int>(matching)) +
              " dedup=" + std::to_string(static_cast<int>(dedup)) +
              " workers=" + std::to_string(workers);
          EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
          EXPECT_EQ(result->size(), expected.size()) << context;
          EXPECT_EQ(info.result_pairs, result->size()) << context;
          EXPECT_EQ(info.duplicate_strings, corpus.size() - sequences.size())
              << context;
          // The six copies of {smith} share only "smith" (in 9 strings).
          size_t smith_pairs = 0;
          for (const TsjPair& p : *result) {
            smith_pairs += std::count(smiths.begin(), smiths.end(), p.a) *
                           std::count(smiths.begin(), smiths.end(), p.b);
          }
          EXPECT_EQ(smith_pairs, m == 8 ? 0u : 15u) << context;
        }
      }
    }
  }
}

TEST(TsjTest, GreedyAligningKeepsTokenOrder) {
  // x and x' hold one token multiset in two orders. Greedy aligning's cost
  // depends on the order: it aligns x' with y at SLD 3 (NSLD 0.375) but x
  // with y at SLD 5 (NSLD 10/18). So copies are classed by the ordered
  // sequence, and a copy of each must get its own original's value; exact
  // aligning joins both with y at 0.375.
  const TokenizedString x = {"aba", "a", "b"};
  const TokenizedString x_reordered = {"b", "a", "aba"};
  const TokenizedString y = {"ba", "aa", "baba"};
  ASSERT_EQ(Sld(x_reordered, y, TokenAligning::kGreedy), 3);
  ASSERT_EQ(Sld(x, y, TokenAligning::kGreedy), 5);
  ASSERT_EQ(Sld(x, y, TokenAligning::kExact), 3);
  Corpus corpus;
  const std::vector<TokenizedString> strings = {x, x_reordered, y, x,
                                                x_reordered};
  for (const TokenizedString& s : strings) corpus.AddString(s);
  const double t = 0.4;
  for (const TokenAligning aligning :
       {TokenAligning::kExact, TokenAligning::kGreedy}) {
    const bool greedy = aligning == TokenAligning::kGreedy;
    PairNsldSet oracle;
    for (uint32_t i = 0; i < strings.size(); ++i) {
      for (uint32_t j = i + 1; j < strings.size(); ++j) {
        const double nsld =
            NsldFromSld(Sld(strings[i], strings[j], aligning),
                        AggregateLength(strings[i]),
                        AggregateLength(strings[j]));
        if (nsld <= t) oracle.emplace(i, j, nsld);
      }
    }
    // y (id 2) joins x' (ids 1, 4) at 0.375, and x (ids 0, 3) only when
    // aligning is exact.
    EXPECT_EQ(oracle.count({1u, 2u, 0.375}), 1u);
    EXPECT_EQ(oracle.count({2u, 4u, 0.375}), 1u);
    EXPECT_EQ(oracle.count({0u, 2u, 0.375}), greedy ? 0u : 1u);
    EXPECT_EQ(oracle.count({2u, 3u, 0.375}), greedy ? 0u : 1u);
    for (const DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                      DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options = Lossless(t);
      options.aligning = aligning;
      options.dedup = dedup;
      const auto result = TokenizedStringJoiner(options).SelfJoin(corpus);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(ToPairNsldSet(*result), oracle)
          << "greedy=" << greedy << " dedup=" << static_cast<int>(dedup);
      EXPECT_EQ(result->size(), oracle.size());
    }
  }
}

TEST(TsjTest, ResultIndependentOfWorkerCount) {
  Rng rng(3333);
  Corpus corpus = MakeCorpus(&rng, 60);
  TsjOptions a = Lossless(0.15);
  a.mapreduce.num_workers = 1;
  a.mapreduce.num_partitions = 1;
  TsjOptions b = Lossless(0.15);
  b.mapreduce.num_workers = 8;
  b.mapreduce.num_partitions = 61;
  const auto ra = TokenizedStringJoiner(a).SelfJoin(corpus);
  const auto rb = TokenizedStringJoiner(b).SelfJoin(corpus);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ToSet(*ra), ToSet(*rb));
}

TEST(TsjTest, RunInfoCountersAreConsistent) {
  // Multi-worker, so the sanitizer jobs fill the per-worker counter slots
  // concurrently.
  Rng rng(4444);
  Corpus corpus = MakeCorpus(&rng, 70);
  TsjOptions options = Lossless(0.15);
  options.mapreduce.num_workers = 4;
  TsjRunInfo info;
  const auto result = TokenizedStringJoiner(options).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(info.result_pairs, result->size());
  EXPECT_EQ(info.shuffle_partitions, options.mapreduce.num_partitions);
  // The length filter runs where pairs are generated, so every distinct
  // candidate meets the histogram filter or verification.
  EXPECT_EQ(info.distinct_candidates,
            info.histogram_filtered + info.verified_candidates);
  EXPECT_GE(info.verified_candidates, info.result_pairs);
  EXPECT_GT(info.shared_token_candidates + info.similar_token_candidates,
            0u);
}

TEST(TsjTest, FatalTaskFaultFailsTheJoinWithItsRootCause) {
  // With no retries, one injected reduce fault aborts its job. The join
  // must fail with that root cause instead of returning the pairs the
  // other jobs found; disarmed, the same options join completely. The
  // first reduce is MassJoin's, and the join stops there: the fused
  // shared-token + dedup/verify job never runs.
  testutil::RestoreFaultSpecFromEnv restore;
  Rng rng(4545);
  const Corpus corpus = MakeCorpus(&rng, 60);
  TsjOptions options = Lossless(0.15);
  options.mapreduce.max_task_retries = 0;

  ASSERT_TRUE(FaultInjector::Global().Configure("task.reduce=once").ok());
  TsjRunInfo info;
  const auto aborted = TokenizedStringJoiner(options).SelfJoin(corpus, &info);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(aborted.status().message().find("task.reduce"),
            std::string::npos)
      << aborted.status().ToString();
  std::vector<std::string> jobs;
  for (const JobStats& job : info.pipeline.jobs) jobs.push_back(job.name);
  EXPECT_EQ(jobs, (std::vector<std::string>{"massjoin-generate",
                                            "massjoin-verify"}));

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  const auto joined = TokenizedStringJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(ToSet(*joined), ToSet(BruteForceNsldSelfJoin(corpus, 0.15)));
}

TEST(TsjTest, BudgetedVerifyMatchesAllPairsSld) {
  // The budget-aware verification engine may only skip work: the joined
  // pairs AND their reported NSLD values must match an all-pairs loop over
  // the unbounded byte-level Sld bit for bit, across thresholds and both
  // alignings.
  Rng rng(5150);
  Corpus corpus = MakeCorpus(&rng, 80);
  std::vector<TokenizedString> strings;
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    strings.push_back(corpus.Materialize(s));
  }
  for (double t : {0.05, 0.1, 0.2, 0.35}) {
    for (TokenAligning aligning :
         {TokenAligning::kExact, TokenAligning::kGreedy}) {
      PairNsldSet expected;
      for (uint32_t i = 0; i < corpus.size(); ++i) {
        for (uint32_t j = i + 1; j < corpus.size(); ++j) {
          const double nsld =
              NsldFromSld(Sld(strings[i], strings[j], aligning),
                          corpus.aggregate_length(i),
                          corpus.aggregate_length(j));
          if (nsld <= t) expected.emplace(i, j, nsld);
        }
      }
      TsjOptions options = Lossless(t);
      options.aligning = aligning;
      const auto result = TokenizedStringJoiner(options).SelfJoin(corpus);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(ToPairNsldSet(*result), expected)
          << "T=" << t << " exact=" << (aligning == TokenAligning::kExact);
    }
  }
}

TEST(TsjTest, FindsShuffledAndEditedRingNames) {
  // End-to-end sanity on the motivating example (Sec. I-A).
  Corpus corpus;
  const StringId a = corpus.AddString({"barak", "obama"});
  const StringId b = corpus.AddString({"obama", "barak"});   // shuffle
  const StringId c = corpus.AddString({"boraak", "obamma"});  // edits
  corpus.AddString({"john", "smith"});                        // unrelated
  const auto result = TokenizedStringJoiner(Lossless(0.25)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  const PairSet pairs = ToSet(*result);
  EXPECT_TRUE(pairs.count({a, b}));
  EXPECT_TRUE(pairs.count({a, c}));
  EXPECT_TRUE(pairs.count({b, c}));
  EXPECT_EQ(pairs.size(), 3u);
}

}  // namespace
}  // namespace tsj
