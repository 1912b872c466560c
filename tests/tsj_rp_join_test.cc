// Tests of the general R x P join (Sec. II-B): correctness against brute
// force, orientation, approximation containment, and parity with SelfJoin
// semantics.

#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
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

// (pair, NSLD) as an order-free set, NSLD compared bit for bit.
using PairNsldSet = std::set<std::tuple<uint32_t, uint32_t, double>>;

PairNsldSet ToPairNsldSet(const std::vector<TsjPair>& pairs) {
  PairNsldSet set;
  for (const TsjPair& p : pairs) set.emplace(p.a, p.b, p.nsld);
  return set;
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

TEST(TsjRpJoinTest, CopiesWithinAndAcrossSidesMatchBruteForce) {
  // Copy classes lie within one side: {barak, obama} has copies in R and
  // in P, so it is one class on each side, and its R x P pairs come from
  // verifying the two representatives. {smith} and {smith, kowalski} put
  // "smith" in 8 strings of R and P together, so M = 7 drops it. Blank
  // and token-free copies sit on both sides. Every run must return brute
  // force's pairs under the cutoff's rule, each once.
  Corpus r, p;
  auto add = [](Corpus* corpus, const TokenizedString& name, int copies) {
    for (int c = 0; c < copies; ++c) corpus->AddString(name);
  };
  add(&r, {"barak", "obama"}, 2);
  add(&p, {"anna", "lea"}, 1);
  add(&r, {"obama", "barak"}, 1);
  add(&p, {"barak", "obama"}, 3);
  add(&r, {"anna", "lee"}, 3);
  add(&p, {"smith"}, 3);
  add(&r, {"smith"}, 3);
  add(&p, {"anna", "lea"}, 1);
  add(&r, {"abcdefghij"}, 2);
  add(&p, {"abcdefghik"}, 2);
  add(&p, {"smith", "kowalski"}, 2);
  add(&r, {""}, 2);
  add(&p, {"", ""}, 1);
  add(&r, {}, 2);
  add(&p, {}, 1);
  add(&r, {"barak", "obama"}, 1);
  auto duplicates = [](const Corpus& corpus) {
    std::set<std::vector<TokenId>> distinct;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      const std::span<const TokenId> tokens = corpus.tokens(s);
      distinct.insert(std::vector<TokenId>(tokens.begin(), tokens.end()));
    }
    return corpus.size() - distinct.size();
  };
  std::map<std::string, uint32_t> frequency_of;  // over R and P together
  for (const Corpus* corpus : {&r, &p}) {
    for (uint32_t s = 0; s < corpus->size(); ++s) {
      const TokenizedString name = corpus->Materialize(s);
      for (const std::string& text :
           std::set<std::string>(name.begin(), name.end())) {
        ++frequency_of[text];
      }
    }
  }
  ASSERT_EQ(frequency_of.at("smith"), 8u);
  const double t = 0.15;
  const std::vector<TsjPair> oracle = testutil::BruteForceRP(r, p, t);
  for (const uint32_t m : {7u, 8u}) {
    const auto survives = [&](const std::string& text) {
      return frequency_of.at(text) <= m;
    };
    for (const TokenMatching matching :
         {TokenMatching::kFuzzy, TokenMatching::kExact}) {
      PairNsldSet expected;
      for (const TsjPair& pair : oracle) {
        if (testutil::JoinableUnderCutoff(r.Materialize(pair.a),
                                          p.Materialize(pair.b), matching, t,
                                          survives)) {
          expected.emplace(pair.a, pair.b, pair.nsld);
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
          const auto result = TokenizedStringJoiner(options).Join(r, p, &info);
          ASSERT_TRUE(result.ok());
          const std::string context =
              "M=" + std::to_string(m) +
              " matching=" + std::to_string(static_cast<int>(matching)) +
              " dedup=" + std::to_string(static_cast<int>(dedup)) +
              " workers=" + std::to_string(workers);
          EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
          EXPECT_EQ(result->size(), expected.size()) << context;
          EXPECT_EQ(info.duplicate_strings, duplicates(r) + duplicates(p))
              << context;
        }
      }
    }
  }
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
