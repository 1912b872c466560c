// Tests of the general R x P join (Sec. II-B): correctness against brute
// force, orientation, approximation containment, and parity with SelfJoin
// semantics.

#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<TsjPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
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

TsjOptions Lossless(double t) {
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;
  return options;
}

class TsjRpJoinTest : public ::testing::TestWithParam<double> {};

TEST_P(TsjRpJoinTest, MatchesBruteForce) {
  const double t = GetParam();
  Rng rng(900 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 3; ++round) {
    Corpus r = MakeCorpus(&rng, 40);
    Corpus p = MakeCorpus(&rng, 50);
    const auto result = TokenizedStringJoiner(Lossless(t)).Join(r, p);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToSet(*result), ToSet(testutil::BruteForceRP(r, p, t)))
        << "T=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TsjRpJoinTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3));

TEST(TsjRpJoinTest, OrientationIsRThenP) {
  Corpus r, p;
  r.AddString({"barak", "obama"});
  p.AddString({"zzz"});
  p.AddString({"obama", "barak"});
  const auto result = TokenizedStringJoiner(Lossless(0.1)).Join(r, p);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].a, 0u);  // id within R
  EXPECT_EQ((*result)[0].b, 1u);  // id within P
  EXPECT_DOUBLE_EQ((*result)[0].nsld, 0.0);
}

TEST(TsjRpJoinTest, SwappingCorporaTransposesResult) {
  Rng rng(901);
  Corpus r = MakeCorpus(&rng, 35);
  Corpus p = MakeCorpus(&rng, 45);
  const auto rp = TokenizedStringJoiner(Lossless(0.15)).Join(r, p);
  const auto pr = TokenizedStringJoiner(Lossless(0.15)).Join(p, r);
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(pr.ok());
  PairSet transposed;
  for (const auto& pair : *pr) transposed.emplace(pair.b, pair.a);
  EXPECT_EQ(ToSet(*rp), transposed);
}

TEST(TsjRpJoinTest, DedupStrategiesAgree) {
  Rng rng(902);
  Corpus r = MakeCorpus(&rng, 40);
  Corpus p = MakeCorpus(&rng, 40);
  TsjOptions one = Lossless(0.15);
  TsjOptions both = Lossless(0.15);
  both.dedup = DedupStrategy::kGroupOnBothStrings;
  const auto r1 = TokenizedStringJoiner(one).Join(r, p);
  const auto r2 = TokenizedStringJoiner(both).Join(r, p);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ToSet(*r1), ToSet(*r2));
}

TEST(TsjRpJoinTest, ApproximationsNeverAddPairs) {
  Rng rng(903);
  Corpus r = MakeCorpus(&rng, 40);
  Corpus p = MakeCorpus(&rng, 40);
  const auto reference = TokenizedStringJoiner(Lossless(0.2)).Join(r, p);
  ASSERT_TRUE(reference.ok());
  const PairSet ref_set = ToSet(*reference);
  TsjOptions greedy = Lossless(0.2);
  greedy.aligning = TokenAligning::kGreedy;
  TsjOptions exact_token = Lossless(0.2);
  exact_token.matching = TokenMatching::kExact;
  for (const TsjOptions& options : {greedy, exact_token}) {
    const auto result = TokenizedStringJoiner(options).Join(r, p);
    ASSERT_TRUE(result.ok());
    for (const auto& pair : ToSet(*result)) {
      EXPECT_TRUE(ref_set.count(pair));
    }
  }
}

TEST(TsjRpJoinTest, CrossCollectionFrequencyCutoff) {
  // "john" appears in 3 R strings and 3 P strings: a joint frequency of 6.
  Corpus r, p;
  for (int i = 0; i < 3; ++i) {
    r.AddString({"john", "ra" + std::to_string(i) + "xqz"});
    p.AddString({"john", "pb" + std::to_string(i) + "wvy"});
  }
  TsjOptions capped = Lossless(0.4);
  capped.max_token_frequency = 5;  // 6 > 5: "john" dropped
  capped.matching = TokenMatching::kExact;
  TsjRunInfo info;
  const auto result = TokenizedStringJoiner(capped).Join(r, p, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(info.dropped_tokens, 1u);
  EXPECT_TRUE(result->empty());  // the only shared token was dropped
  // With the cutoff lifted the pairs reappear.
  TsjOptions uncapped = Lossless(0.4);
  uncapped.matching = TokenMatching::kExact;
  const auto full = TokenizedStringJoiner(uncapped).Join(r, p);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->empty());
}

TEST(TsjRpJoinTest, EmptyCorpora) {
  Corpus empty, one;
  one.AddString({"x"});
  const TokenizedStringJoiner joiner(Lossless(0.1));
  EXPECT_TRUE(joiner.Join(empty, empty)->empty());
  EXPECT_TRUE(joiner.Join(empty, one)->empty());
  EXPECT_TRUE(joiner.Join(one, empty)->empty());
}

TEST(TsjRpJoinTest, EmptyStringsAcrossCorporaPair) {
  Corpus r, p;
  r.AddString({});
  r.AddString({"bob"});
  p.AddString({});
  const auto result = TokenizedStringJoiner(Lossless(0.1)).Join(r, p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToSet(*result), (PairSet{{0u, 0u}}));
}

TEST(TsjRpJoinTest, IdenticalCorporaContainSelfJoinPairs) {
  // Joining a corpus with itself yields the self-join pairs in both
  // orientations plus the diagonal.
  Rng rng(904);
  Corpus corpus = MakeCorpus(&rng, 30);
  const auto self = TokenizedStringJoiner(Lossless(0.15)).SelfJoin(corpus);
  const auto rp = TokenizedStringJoiner(Lossless(0.15)).Join(corpus, corpus);
  ASSERT_TRUE(self.ok());
  ASSERT_TRUE(rp.ok());
  const PairSet rp_set = ToSet(*rp);
  for (uint32_t i = 0; i < corpus.size(); ++i) {
    EXPECT_TRUE(rp_set.count({i, i})) << i;  // diagonal
  }
  for (const auto& pair : *self) {
    EXPECT_TRUE(rp_set.count({pair.a, pair.b}));
    EXPECT_TRUE(rp_set.count({pair.b, pair.a}));
  }
  EXPECT_EQ(rp_set.size(), corpus.size() + 2 * self->size());
}

TEST(TsjRpJoinTest, RunInfoConsistent) {
  Rng rng(905);
  Corpus r = MakeCorpus(&rng, 40);
  Corpus p = MakeCorpus(&rng, 40);
  TsjRunInfo info;
  const auto result =
      TokenizedStringJoiner(Lossless(0.15)).Join(r, p, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(info.result_pairs, result->size());
  EXPECT_EQ(info.distinct_candidates,
            info.histogram_filtered + info.verified_candidates);
  EXPECT_EQ(info.pipeline.jobs.size(), 4u);
}

}  // namespace
}  // namespace tsj
