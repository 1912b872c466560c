#include "tokenized/bounds.h"

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tokenized/tokenized_string.h"

namespace tsj {
namespace {

TEST(AggregateLengthBoundsTest, Lemma6LowerBoundHoldsOnRandomSamples) {
  // Only the lower bound of Lemma 6 is provable (and it is the only half
  // TSJ prunes with); see the upper-bound erratum test below.
  Rng rng(41);
  for (int trial = 0; trial < 600; ++trial) {
    const auto x = testutil::RandomTokenizedString(&rng, 1, 4, 1, 6);
    const auto y = testutil::RandomTokenizedString(&rng, 1, 4, 1, 6);
    const double nsld = Nsld(x, y);
    const size_t lx = AggregateLength(x);
    const size_t ly = AggregateLength(y);
    EXPECT_GE(nsld, NsldLowerBoundFromAggregateLengths(lx, ly) - 1e-12);
  }
}

TEST(AggregateLengthBoundsTest, Lemma6UpperBoundErratumCounterexample) {
  // Paper erratum (see bounds.h): the Lemma 6 upper bound fails when token
  // counts differ, because tokens cannot merge. x = {aaa} vs
  // y = {b,b,b,b,b,b}: SLD = LD(aaa,b) + 5*|b| = 8 > L(y) = 6, so
  // NSLD = 16/17 exceeds the claimed bound 2/(3/6 + 2) = 0.8.
  const TokenizedString x = {"aaa"};
  const TokenizedString y = {"b", "b", "b", "b", "b", "b"};
  EXPECT_EQ(Sld(x, y), 8);
  EXPECT_DOUBLE_EQ(Nsld(x, y), 16.0 / 17.0);
  EXPECT_GT(Nsld(x, y), NsldUpperBoundFromAggregateLengths(3, 6));
}

TEST(AggregateLengthBoundsTest, Lemma6UpperBoundHoldsForEqualSingleTokens) {
  // In the regime the Lemma 6 proof implicitly assumes (one token each,
  // where SLD reduces to LD and Lemma 3 applies), the upper bound holds.
  Rng rng(45);
  for (int trial = 0; trial < 400; ++trial) {
    const TokenizedString x = {testutil::RandomString(&rng, 1, 8)};
    const TokenizedString y = {testutil::RandomString(&rng, 1, 8)};
    EXPECT_LE(Nsld(x, y),
              NsldUpperBoundFromAggregateLengths(AggregateLength(x),
                                                 AggregateLength(y)) +
                  1e-12);
  }
}

TEST(AggregateLengthBoundsTest, OrderInsensitive) {
  EXPECT_DOUBLE_EQ(NsldLowerBoundFromAggregateLengths(3, 9),
                   NsldLowerBoundFromAggregateLengths(9, 3));
  EXPECT_DOUBLE_EQ(NsldUpperBoundFromAggregateLengths(3, 9),
                   NsldUpperBoundFromAggregateLengths(9, 3));
}

TEST(AggregateLengthBoundsTest, EqualLengthsGiveZeroLowerBound) {
  EXPECT_DOUBLE_EQ(NsldLowerBoundFromAggregateLengths(5, 5), 0.0);
}

TEST(HistogramBoundTest, IdenticalHistogramsGiveZero) {
  const std::vector<uint32_t> h = {2, 4, 5};
  EXPECT_EQ(SldLowerBoundFromHistograms(h, h), 0);
}

TEST(HistogramBoundTest, PaddingChargesFullTokenLength) {
  // {5} vs {} — the lone token must be deleted entirely.
  EXPECT_EQ(SldLowerBoundFromHistograms({5}, {}), 5);
  EXPECT_EQ(SldLowerBoundFromHistograms({}, {5}), 5);
  // {2, 3} vs {3}: zero pads against the smaller entry (2), and 3 pairs
  // with 3 -> bound 2.
  EXPECT_EQ(SldLowerBoundFromHistograms({2, 3}, {3}), 2);
}

TEST(HistogramBoundTest, SortedPairingOfLengths) {
  // {1, 9} vs {2, 8}: |1-2| + |9-8| = 2 (not |1-8| + |9-2| = 14).
  EXPECT_EQ(SldLowerBoundFromHistograms({1, 9}, {2, 8}), 2);
}

TEST(HistogramBoundTest, NeverExceedsTrueSldOnRandomSamples) {
  // Soundness: the histogram bound must lower-bound the exact SLD for the
  // filter (Sec. III-E.2) to be lossless.
  Rng rng(42);
  for (int trial = 0; trial < 800; ++trial) {
    const auto x = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const auto y = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const int64_t bound =
        SldLowerBoundFromHistograms(SortedTokenLengths(x),
                                    SortedTokenLengths(y));
    EXPECT_LE(bound, Sld(x, y)) << "trial " << trial;
  }
}

TEST(HistogramBoundTest, NsldBoundNeverExceedsTrueNsld) {
  // The filter compares the SLD bound with the SLD budget, which is the
  // NsldFromSld predicate in integer form; the NSLD that predicate gives
  // the bound must lower-bound the exact NSLD.
  Rng rng(43);
  for (int trial = 0; trial < 800; ++trial) {
    const auto x = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const auto y = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const int64_t bound = SldLowerBoundFromHistograms(SortedTokenLengths(x),
                                                      SortedTokenLengths(y));
    EXPECT_LE(NsldFromSld(bound, AggregateLength(x), AggregateLength(y)),
              Nsld(x, y))
        << "trial " << trial;
  }
}

TEST(HistogramBoundTest, TightWhenOnlyLengthsDiffer) {
  // Tokens drawn from a unary alphabet: LD equals the length difference,
  // so the histogram bound is exact.
  const TokenizedString x = {"aaa", "a"};
  const TokenizedString y = {"aa", "aaaa"};
  const int64_t bound = SldLowerBoundFromHistograms(SortedTokenLengths(x),
                                                    SortedTokenLengths(y));
  EXPECT_EQ(bound, Sld(x, y));
}

TEST(HistogramBoundTest, HistogramBoundAtLeastAggregateBound) {
  // The histogram bound dominates (is at least as strong as) Lemma 6's
  // aggregate-length bound: sum |ai - bi| >= |sum ai - sum bi|, the
  // length gap |L(x) - L(y)|.
  Rng rng(44);
  for (int trial = 0; trial < 500; ++trial) {
    const auto x = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const auto y = testutil::RandomTokenizedString(&rng, 0, 4, 1, 6);
    const int64_t lx = static_cast<int64_t>(AggregateLength(x));
    const int64_t ly = static_cast<int64_t>(AggregateLength(y));
    EXPECT_GE(SldLowerBoundFromHistograms(SortedTokenLengths(x),
                                          SortedTokenLengths(y)),
              std::abs(lx - ly))
        << "trial " << trial;
  }
}

// The thresholds the table tests run at: both ends of the valid range,
// the paper's default 0.1, the CLI's bag-filter boundary probe 2/11, and
// each of them one ulp lower, where a table built with a rounding slip
// would disagree with its predicate. One ulp below 0 is a negative T, at
// which nothing is admitted.
std::vector<double> TableThresholds() {
  std::vector<double> thresholds;
  for (const double t : {0.0, 0.05, 0.1, 2.0 / 11.0, 0.225, 0.5, 0.99}) {
    thresholds.push_back(t);
    thresholds.push_back(std::nextafter(t, -1.0));
  }
  return thresholds;
}

constexpr size_t kTableMaxLength = 300;

TEST(ThresholdTablesTest, MaxPartnerIsTheLemma6Window) {
  for (const double t : TableThresholds()) {
    const ThresholdTables tables(t, kTableMaxLength);
    for (size_t lx = 0; lx <= kTableMaxLength; ++lx) {
      for (size_t ly = lx; ly <= kTableMaxLength; ++ly) {
        ASSERT_EQ(static_cast<int64_t>(ly) <= tables.max_partner(lx),
                  NsldLowerBoundFromAggregateLengths(lx, ly) <= t)
            << "T " << t << " L(x) " << lx << " L(y) " << ly;
      }
    }
  }
}

TEST(ThresholdTablesTest, SldBudgetIsTheNsldFromSldPredicate) {
  for (const double t : TableThresholds()) {
    const ThresholdTables tables(t, kTableMaxLength);
    // At every pair of lengths the predicate holds at the budget and fails
    // one above it...
    for (size_t lx = 0; lx <= kTableMaxLength; ++lx) {
      for (size_t ly = 0; ly <= kTableMaxLength; ++ly) {
        const int64_t budget = tables.sld_budget(lx + ly);
        if (budget >= 0) {
          ASSERT_LE(NsldFromSld(budget, lx, ly), t)
              << "T " << t << " L(x) " << lx << " L(y) " << ly;
        }
        ASSERT_GT(NsldFromSld(budget + 1, lx, ly), t)
            << "T " << t << " L(x) " << lx << " L(y) " << ly;
      }
    }
    // ...and for every sum of lengths, at every s up to one past the
    // largest SLD, s <= budget exactly when NSLD <= T.
    for (size_t sum = 0; sum <= 2 * kTableMaxLength; ++sum) {
      const size_t lx = sum - sum / 2;
      const size_t ly = sum / 2;
      for (int64_t s = 0; s <= static_cast<int64_t>(sum) + 1; ++s) {
        ASSERT_EQ(s <= tables.sld_budget(sum), NsldFromSld(s, lx, ly) <= t)
            << "T " << t << " L(x)+L(y) " << sum << " s " << s;
      }
    }
  }
}

// The bag bound of x and y, from the bags a Corpus stores for them: the
// ones the join's filter reads.
int64_t BagBound(const TokenizedString& x, const TokenizedString& y) {
  Corpus corpus;
  corpus.AddString(x);
  corpus.AddString(y);
  return SldLowerBoundFromCharBags(corpus.char_bag(0), corpus.char_bag(1),
                                   corpus.aggregate_length(0),
                                   corpus.aggregate_length(1));
}

TEST(CharBagBoundTest, KnownValues) {
  // One substituted character: the bound is tight.
  EXPECT_EQ(BagBound({"xy", "abc"}, {"xy", "abd"}), 1);
  // Anagrams have equal bags: the bound is 0 while LD(ab, ba) = 2.
  EXPECT_EQ(BagBound({"ab"}, {"ba"}), 0);
  // Against the empty string every character is an edit.
  EXPECT_EQ(BagBound({"abc"}, {}), 3);
  EXPECT_EQ(BagBound({}, {}), 0);
  // 0x81 and 'a' (0x61) share bucket 1, so their difference is invisible.
  EXPECT_EQ(BagBound({"\x81"}, {"a"}), 0);
  // 300 'a's saturate their bucket at 255; the length difference restores
  // the 45 lost counts against the empty string...
  EXPECT_EQ(BagBound({std::string(300, 'a')}, {}), 300);
  // ...but not between two saturated buckets, where 255 < SLD = 300.
  EXPECT_EQ(BagBound({std::string(300, 'a')}, {std::string(300, 'b')}), 255);
}

// The bag bound bucket by bucket, as the filter computed it before it took
// the L1-distance form: the reference that form must equal.
int64_t PerBucketBagBound(const CharBag& bag_x, const CharBag& bag_y,
                          size_t len_x, size_t len_y) {
  int64_t x_only = 0;
  int64_t y_only = 0;
  for (size_t i = 0; i < kCharBagBuckets; ++i) {
    const int64_t d = static_cast<int64_t>(bag_x[i]) - bag_y[i];
    x_only += std::max<int64_t>(d, 0);
    y_only += std::max<int64_t>(-d, 0);
  }
  const int64_t diff =
      static_cast<int64_t>(len_x) - static_cast<int64_t>(len_y);
  return std::max({x_only, y_only, y_only + diff, x_only - diff});
}

// A bag whose buckets are often empty or saturated, as a long string's
// are, and otherwise any count.
CharBag RandomBag(Rng* rng) {
  CharBag bag{};
  for (uint8_t& count : bag) {
    switch (rng->Uniform(4)) {
      case 0:
        count = 0;
        break;
      case 1:
        count = 255;
        break;
      default:
        count = static_cast<uint8_t>(rng->Uniform(256));
        break;
    }
  }
  return bag;
}

TEST(CharBagBoundTest, SadFormMatchesPerBucketReference) {
  Rng rng(47);
  for (int trial = 0; trial < 20000; ++trial) {
    const CharBag x = RandomBag(&rng);
    CharBag y = (rng.Uniform(4) == 0) ? x : RandomBag(&rng);
    y[rng.Uniform(kCharBagBuckets)] = static_cast<uint8_t>(rng.Uniform(256));
    // A string has at least as many characters as its bag counts, and
    // more where a bucket saturated.
    const size_t lx = CharBagSize(x) + (rng.Uniform(2) ? rng.Uniform(700) : 0);
    const size_t ly = CharBagSize(y) + (rng.Uniform(2) ? rng.Uniform(700) : 0);
    const int64_t reference = PerBucketBagBound(x, y, lx, ly);
    ASSERT_EQ(SldLowerBoundFromCharBags(x, y, lx, ly), reference)
        << "trial " << trial;
    ASSERT_EQ(SldLowerBoundFromCharBags(x, CharBagSize(x), y, CharBagSize(y),
                                        lx, ly),
              reference)
        << "trial " << trial;
    ASSERT_EQ(CharBagSize(x), std::accumulate(x.begin(), x.end(), 0u));
  }
}

TEST(CharBagBoundTest, BagsBucketAndSaturate) {
  Corpus corpus;
  corpus.AddString({"\xff\x80", std::string(300, 'q'), "", "qq"});
  const CharBag& bag = corpus.char_bag(0);
  EXPECT_EQ(bag['q' % kCharBagBuckets], 255);
  EXPECT_EQ(bag[0xff % kCharBagBuckets], 1);
  EXPECT_EQ(bag[0x80 % kCharBagBuckets], 1);
  EXPECT_EQ(std::accumulate(bag.begin(), bag.end(), 0), 257);
}

// One token of the bag-bound samples: short tokens over a tiny alphabet
// (so duplicates within and across strings are common, empty ones
// included), raw bytes with the high bit set, tokens past the 64-char
// Myers word, and one-byte runs longer than a bucket's 255 saturation.
std::string RandomBagToken(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return testutil::RandomByteString(rng, 0, 12);
    case 1:
      return testutil::RandomString(rng, 65, 100, 3);
    case 2:
      return std::string(250 + rng->Uniform(60),
                         static_cast<char>('a' + rng->Uniform(3)));
    default:
      return testutil::RandomString(rng, 0, 5, 3);
  }
}

TokenizedString RandomBagString(Rng* rng) {
  TokenizedString tokens(rng->Uniform(4));
  for (std::string& token : tokens) token = RandomBagToken(rng);
  return tokens;
}

TEST(CharBagBoundTest, NeverExceedsSldAndNeverBelowLengthGap) {
  // Soundness of the bag filter: the bound lower-bounds the exact SLD (and
  // so the greedy-aligning cost) and is never below |L(x) - L(y)|, the
  // Lemma 6 bound it replaces. y is x itself, an edit of x, a token
  // duplicated, or an independent draw.
  Rng rng(46);
  for (int trial = 0; trial < 600; ++trial) {
    const TokenizedString x = RandomBagString(&rng);
    TokenizedString y;
    switch (rng.Uniform(4)) {
      case 0:
        y = x;
        break;
      case 1:
        y = x;
        if (!y.empty()) {
          std::string& token = y[rng.Uniform(y.size())];
          token = testutil::RandomEdit(&rng, token, 3);
        }
        break;
      case 2:
        y = x;
        if (!y.empty()) y.push_back(y[rng.Uniform(y.size())]);
        break;
      default:
        y = RandomBagString(&rng);
        break;
    }
    const int64_t bound = BagBound(x, y);
    const int64_t exact = Sld(x, y, TokenAligning::kExact);
    ASSERT_LE(bound, exact) << "trial " << trial;
    ASSERT_LE(bound, Sld(x, y, TokenAligning::kGreedy)) << "trial " << trial;
    const int64_t lx = static_cast<int64_t>(AggregateLength(x));
    const int64_t ly = static_cast<int64_t>(AggregateLength(y));
    ASSERT_GE(bound, std::abs(lx - ly)) << "trial " << trial;
    ASSERT_EQ(bound, BagBound(y, x)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tsj
