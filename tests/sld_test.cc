#include "tokenized/sld.h"

#include <string>
#include <vector>

#include "common/random.h"
#include "distance/levenshtein.h"
#include "distance/normalized_levenshtein.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "tokenized/tokenized_string.h"

namespace tsj {
namespace {

// BoundedSld runs on interned token ids: interns x and y into one corpus
// and verifies them there.
BoundedSldResult BoundedSldOf(const TokenizedString& x,
                              const TokenizedString& y, int64_t budget,
                              TokenAligning aligning = TokenAligning::kExact) {
  Corpus corpus;
  const StringId a = corpus.AddString(x);
  const StringId b = corpus.AddString(y);
  return BoundedSld(corpus, corpus.tokens(a), corpus.tokens(b), budget,
                    aligning);
}

// The join's decision: NSLD(x, y) <= threshold, as the SLD budget of the
// threshold on the token-id BoundedSld.
bool NsldWithinThreshold(const TokenizedString& x, const TokenizedString& y,
                         double threshold) {
  const int64_t budget = SldBudgetFromThreshold(
      threshold, AggregateLength(x), AggregateLength(y));
  return BoundedSldOf(x, y, budget).within_budget;
}

TEST(SldTest, PaperSecIIDExamples) {
  // x = {chan, kalan}, y = {chank, alan}, z = {alan}:
  // SLD(x,y) = 2 (chan->chank, kalan->alan), SLD(x,z) = 5.
  const TokenizedString x = {"chan", "kalan"};
  const TokenizedString y = {"chank", "alan"};
  const TokenizedString z = {"alan"};
  EXPECT_EQ(Sld(x, y), 2);
  EXPECT_EQ(Sld(x, z), 5);
  // NSLD(x,y) = 2*2/(9+9+2) = 0.2.
  EXPECT_DOUBLE_EQ(Nsld(x, y), 0.2);
}

TEST(SldTest, IdenticalMultisetsHaveZeroDistance) {
  const TokenizedString x = {"barak", "obama"};
  EXPECT_EQ(Sld(x, x), 0);
  EXPECT_DOUBLE_EQ(Nsld(x, x), 0.0);
}

TEST(SldTest, TokenOrderDoesNotMatter) {
  // NSLD is setwise: shuffling tokens leaves the distance unchanged —
  // exactly the property FMS lacks (Sec. IV).
  const TokenizedString a = {"barak", "obama"};
  const TokenizedString b = {"obama", "barak"};
  EXPECT_EQ(Sld(a, b), 0);
  const TokenizedString c = {"obamma", "boraak", "h"};
  EXPECT_EQ(Sld(a, c), Sld(b, c));
}

TEST(SldTest, EmptyVersusNonEmpty) {
  // Lemma 5's extreme: SLD({}, y) = L(y), NSLD = 1.
  const TokenizedString empty;
  const TokenizedString y = {"abc", "de"};
  EXPECT_EQ(Sld(empty, y), 5);
  EXPECT_DOUBLE_EQ(Nsld(empty, y), 1.0);
  EXPECT_EQ(Sld(empty, empty), 0);
  EXPECT_DOUBLE_EQ(Nsld(empty, empty), 0.0);
}

TEST(SldTest, DifferentCardinalitiesPadWithEmptyTokens) {
  // {ab} vs {ab, cd}: matching ab<->ab costs 0, cd pairs with an empty
  // token costing |cd| = 2.
  EXPECT_EQ(Sld({"ab"}, {"ab", "cd"}), 2);
  // {abc} vs {a, b, c}: best is abc<->a (2 edits) + |b| + |c| = 4, or
  // abc<->b etc. — all cost 4.
  EXPECT_EQ(Sld({"abc"}, {"a", "b", "c"}), 4);
}

TEST(SldTest, MetricAxiomsOnRandomSamples) {
  // Lemma 4 (SLD) and Theorem 2 (NSLD): identity, symmetry, triangle.
  Rng rng(21);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = testutil::RandomTokenizedString(&rng, 0, 3, 1, 5);
    const auto b = testutil::RandomTokenizedString(&rng, 0, 3, 1, 5);
    const auto c = testutil::RandomTokenizedString(&rng, 0, 3, 1, 5);
    EXPECT_EQ(Sld(a, a), 0);
    EXPECT_EQ(Sld(a, b), Sld(b, a));
    EXPECT_GE(Sld(a, b) + Sld(b, c), Sld(a, c));
    EXPECT_DOUBLE_EQ(Nsld(a, a), 0.0);
    EXPECT_DOUBLE_EQ(Nsld(a, b), Nsld(b, a));
    EXPECT_GE(Nsld(a, b) + Nsld(b, c), Nsld(a, c) - 1e-12);
  }
}

TEST(SldTest, NsldRangeIsZeroToOne) {
  Rng rng(22);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = testutil::RandomTokenizedString(&rng, 0, 4, 0, 6);
    const auto b = testutil::RandomTokenizedString(&rng, 0, 4, 0, 6);
    const double nsld = Nsld(a, b);
    EXPECT_GE(nsld, 0.0);
    EXPECT_LE(nsld, 1.0);
  }
}

TEST(SldTest, GreedyNeverUnderestimates) {
  // Greedy-token-aligning (Sec. III-G.5) upper-bounds the exact SLD: it
  // can only push pairs *out* of the join, keeping precision at 1.0.
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    const auto a = testutil::RandomTokenizedString(&rng, 0, 4, 1, 5);
    const auto b = testutil::RandomTokenizedString(&rng, 0, 4, 1, 5);
    EXPECT_GE(Sld(a, b, TokenAligning::kGreedy),
              Sld(a, b, TokenAligning::kExact));
  }
}

TEST(SldTest, GreedyExactOnSingleTokens) {
  // With one token per side the bigraph is 1x1: greedy == exact.
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    const TokenizedString a = {testutil::RandomString(&rng, 1, 8)};
    const TokenizedString b = {testutil::RandomString(&rng, 1, 8)};
    EXPECT_EQ(Sld(a, b, TokenAligning::kGreedy),
              Sld(a, b, TokenAligning::kExact));
  }
}

TEST(SldTest, GreedyAligningIsSymmetric) {
  // TSJ verifies one pair of class representatives and reports its value
  // for member pairs whose ids run either way (tsj/tsj.cc), which is exact
  // under greedy aligning only if greedy SLD(x, y) == SLD(y, x). Small
  // alphabets and short tokens make many edges cost the same, so the
  // picker's tie-break decides most rounds.
  Rng rng(26);
  for (int trial = 0; trial < 20000; ++trial) {
    const int alphabet = static_cast<int>(2 + rng.Uniform(3));
    const auto x = testutil::RandomTokenizedString(&rng, 1, 6, 0, 5, alphabet);
    const auto y = testutil::RandomTokenizedString(&rng, 1, 6, 0, 5, alphabet);
    const int64_t sld = Sld(x, y, TokenAligning::kGreedy);
    ASSERT_EQ(Sld(y, x, TokenAligning::kGreedy), sld) << "trial=" << trial;
    Corpus corpus;
    const StringId a = corpus.AddString(x);
    const StringId b = corpus.AddString(y);
    const int64_t ceiling =
        static_cast<int64_t>(AggregateLength(x) + AggregateLength(y));
    for (int64_t budget : {sld - 1, sld, ceiling}) {
      const BoundedSldResult xy =
          BoundedSld(corpus, corpus.tokens(a), corpus.tokens(b), budget,
                     TokenAligning::kGreedy);
      const BoundedSldResult yx =
          BoundedSld(corpus, corpus.tokens(b), corpus.tokens(a), budget,
                     TokenAligning::kGreedy);
      ASSERT_EQ(xy.within_budget, sld <= budget)
          << "trial=" << trial << " budget=" << budget;
      ASSERT_EQ(yx.within_budget, xy.within_budget)
          << "trial=" << trial << " budget=" << budget;
      if (xy.within_budget) {
        ASSERT_EQ(xy.sld, sld) << "trial=" << trial << " budget=" << budget;
        ASSERT_EQ(yx.sld, sld) << "trial=" << trial << " budget=" << budget;
      }
    }
  }
}

TEST(SldTest, Theorem3TokenThresholdCarriesOver) {
  // If NSLD(x, y) <= T then some token pair has NLD <= T. This is the
  // insight enabling TSJ's similar-token candidate generation.
  Rng rng(25);
  const double thresholds[] = {0.1, 0.2, 0.35, 0.5};
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto x = testutil::RandomTokenizedString(&rng, 1, 3, 1, 5);
    const auto y = testutil::RandomTokenizedString(&rng, 1, 3, 1, 5);
    const double nsld = Nsld(x, y);
    for (double t : thresholds) {
      if (nsld > t) continue;
      ++checked;
      bool found = false;
      for (const auto& xt : x) {
        for (const auto& yt : y) {
          if (NormalizedLevenshtein(xt, yt) <= t + 1e-12) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      EXPECT_TRUE(found) << "NSLD=" << nsld << " T=" << t;
    }
  }
  EXPECT_GT(checked, 50);  // the property was actually exercised
}

TEST(SldTest, NsldWithinHonorsLemma6Filter) {
  // Strings whose aggregate lengths alone violate Lemma 6 are out of
  // reach: the length gap exceeds the threshold's SLD budget.
  const TokenizedString tiny = {"a"};
  const TokenizedString huge = {"abcdefghij", "klmnopqrst"};
  EXPECT_LT(SldBudgetFromThreshold(0.5, 1, 20), 20 - 1);
  EXPECT_FALSE(NsldWithinThreshold(tiny, huge, 0.5));
  EXPECT_TRUE(NsldWithinThreshold(tiny, tiny, 0.0));
}

TEST(SldTest, NsldWithinMatchesDirectComparison) {
  Rng rng(26);
  const double thresholds[] = {0.05, 0.1, 0.25, 0.5};
  for (double t : thresholds) {
    for (int trial = 0; trial < 300; ++trial) {
      const auto a = testutil::RandomTokenizedString(&rng, 0, 3, 1, 5);
      const auto b = testutil::RandomTokenizedString(&rng, 0, 3, 1, 5);
      EXPECT_EQ(NsldWithinThreshold(a, b, t), Nsld(a, b) <= t) << "T=" << t;
    }
  }
}

TEST(SldTest, SingleTokenStringsReduceToPlainEditDistance) {
  // With one token per side the bigraph is 1x1, so SLD == LD and
  // NSLD == NLD — the setwise metric is a conservative extension.
  Rng rng(27);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = testutil::RandomString(&rng, 1, 9);
    const std::string b = testutil::RandomString(&rng, 1, 9);
    EXPECT_EQ(Sld({a}, {b}), static_cast<int64_t>(Levenshtein(a, b)));
    EXPECT_DOUBLE_EQ(Nsld({a}, {b}), NormalizedLevenshtein(a, b));
  }
}

TEST(SldBudgetFromThresholdTest, ExactThresholdBoundary) {
  // budget = max{s : NsldFromSld(s) <= t}: the integer budget and the NSLD
  // comparison must agree exactly, or the bounded verify path would flip
  // join decisions at the threshold boundary.
  Rng rng(41);
  const double thresholds[] = {0.0, 0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 0.99};
  for (int trial = 0; trial < 500; ++trial) {
    const size_t lx = rng.Uniform(40);
    const size_t ly = rng.Uniform(40);
    const int64_t total = static_cast<int64_t>(lx + ly);
    for (double t : thresholds) {
      const int64_t budget = SldBudgetFromThreshold(t, lx, ly);
      ASSERT_GE(budget, 0);
      ASSERT_LE(budget, total);
      EXPECT_LE(NsldFromSld(budget, lx, ly), t);
      if (budget < total) {
        EXPECT_GT(NsldFromSld(budget + 1, lx, ly), t);
      }
    }
  }
  EXPECT_EQ(SldBudgetFromThreshold(-0.1, 10, 10), -1);
  EXPECT_EQ(SldBudgetFromThreshold(1.0, 10, 10), 20);
}

TEST(BoundedSldTest, MatchesExactAcrossBudgets) {
  // The engine's core invariants: within_budget iff SLD <= budget, and the
  // exact SLD whenever within — for both alignings, across budgets on both
  // sides of the true distance (exercising the completing path, the
  // row-minima abort, and the solver early exit).
  Rng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const auto b = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    for (TokenAligning aligning :
         {TokenAligning::kExact, TokenAligning::kGreedy}) {
      const int64_t exact = Sld(a, b, aligning);
      const int64_t budgets[] = {0,         exact - 2, exact - 1, exact,
                                 exact + 1, exact + 4, 1 << 20};
      for (int64_t budget : budgets) {
        const BoundedSldResult bounded = BoundedSldOf(a, b, budget, aligning);
        EXPECT_EQ(bounded.within_budget, exact <= budget)
            << "aligning=" << (aligning == TokenAligning::kExact ? "ex" : "gr")
            << " budget=" << budget << " exact=" << exact;
        if (bounded.within_budget) {
          EXPECT_EQ(bounded.sld, exact);
        }
      }
    }
  }
}

TEST(BoundedSldTest, EdgeCardinalities) {
  // k = 0: SLD = 0 fits any non-negative budget; a negative budget
  // (threshold < 0) rejects even identical strings.
  const TokenizedString empty;
  EXPECT_TRUE(BoundedSldOf(empty, empty, 0).within_budget);
  EXPECT_EQ(BoundedSldOf(empty, empty, 0).sld, 0);
  EXPECT_FALSE(BoundedSldOf(empty, empty, -1).within_budget);
  // k = 1 against empty: SLD = L(y).
  const TokenizedString y = {"abc", "de"};
  EXPECT_TRUE(BoundedSldOf(empty, y, 5).within_budget);
  EXPECT_EQ(BoundedSldOf(empty, y, 5).sld, 5);
  EXPECT_FALSE(BoundedSldOf(empty, y, 4).within_budget);
  // k = 1 on both sides reduces to plain bounded LD.
  EXPECT_TRUE(BoundedSldOf({"chan"}, {"chank"}, 1).within_budget);
  EXPECT_EQ(BoundedSldOf({"chan"}, {"chank"}, 1).sld, 1);
  EXPECT_FALSE(BoundedSldOf({"chan"}, {"chank"}, 0).within_budget);
}

TEST(BoundedSldTest, DuplicateTokensStayExact) {
  // Multisets with repeated tokens drive the memoized row/entry path; the
  // copied entries must behave exactly like freshly computed ones.
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = testutil::RandomTokenizedString(&rng, 1, 3, 1, 4, 2);
    auto b = testutil::RandomTokenizedString(&rng, 1, 3, 1, 4, 2);
    // Duplicate a random token on each side to force repetitions.
    a.push_back(a[rng.Uniform(a.size())]);
    b.push_back(b[rng.Uniform(b.size())]);
    const int64_t exact = Sld(a, b);
    for (int64_t budget : {exact - 1, exact, exact + 2}) {
      const BoundedSldResult bounded = BoundedSldOf(a, b, budget);
      EXPECT_EQ(bounded.within_budget, exact <= budget);
      if (bounded.within_budget) {
        EXPECT_EQ(bounded.sld, exact);
      }
    }
  }
}

TEST(BoundedSldTest, WorkNeverExceedsUnboundedModel) {
  // Invariant 3 of the header: the bounded path may only skip work, so its
  // deterministic operation count stays within the SldWorkUnits model the
  // exact path charges.
  Rng rng(44);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const auto b = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const int64_t exact = Sld(a, b);
    for (TokenAligning aligning :
         {TokenAligning::kExact, TokenAligning::kGreedy}) {
      for (int64_t budget : {int64_t{0}, exact, exact + 3}) {
        const BoundedSldResult bounded = BoundedSldOf(a, b, budget, aligning);
        EXPECT_LE(bounded.work_units,
                  SldWorkUnits(AggregateLength(a), AggregateLength(b),
                               a.size(), b.size(), aligning));
      }
    }
  }
}

TEST(BoundedSldTest, TightBudgetSkipsWork) {
  // A hopeless pair must cost far less than its unbounded verification:
  // identical-token short-circuits plus the row-minima abort mean the DP
  // never runs for most of the bigraph.
  const TokenizedString x = {"aaaaaaaaaa", "bbbbbbbbbb", "cccccccccc"};
  const TokenizedString y = {"dddddddddd", "eeeeeeeeee", "ffffffffff"};
  const BoundedSldResult bounded = BoundedSldOf(x, y, 2);
  EXPECT_FALSE(bounded.within_budget);
  const uint64_t unbounded = SldWorkUnits(30, 30, 3, 3, TokenAligning::kExact);
  EXPECT_LT(bounded.work_units, unbounded / 2);
}

TEST(SldWorkUnitsTest, ExactCostsMoreThanGreedyAndGrowsWithSize) {
  // The deterministic cost model behind the Figs. 2/3 runtime ordering.
  EXPECT_GT(SldWorkUnits(10, 10, 4, 4, TokenAligning::kExact),
            SldWorkUnits(10, 10, 4, 4, TokenAligning::kGreedy));
  EXPECT_GT(SldWorkUnits(20, 20, 4, 4, TokenAligning::kExact),
            SldWorkUnits(10, 10, 4, 4, TokenAligning::kExact));
  EXPECT_GT(SldWorkUnits(10, 10, 6, 6, TokenAligning::kExact),
            SldWorkUnits(10, 10, 3, 3, TokenAligning::kExact));
  // Never zero, even for degenerate inputs.
  EXPECT_GT(SldWorkUnits(0, 0, 0, 0, TokenAligning::kGreedy), 0u);
}

TEST(AggregateLengthTest, SumsTokenLengths) {
  EXPECT_EQ(AggregateLength({}), 0u);
  EXPECT_EQ(AggregateLength({"chan", "kalan"}), 9u);
}

TEST(SortedTokenLengthsTest, SortsAscending) {
  EXPECT_EQ(SortedTokenLengths({"kalan", "ab", "chan"}),
            (std::vector<uint32_t>{2, 4, 5}));
}

}  // namespace
}  // namespace tsj
