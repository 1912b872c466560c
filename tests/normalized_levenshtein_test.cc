#include "distance/normalized_levenshtein.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "distance/levenshtein.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace tsj {
namespace {

TEST(NldTest, PaperExamples) {
  // Sec. II-C.2: NLD("Thomson","Thompson") = 2*1/(7+8+1) = 1/8,
  //              NLD("Alex","Alexa")       = 2*1/(4+5+1) = 1/5.
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("Thomson", "Thompson"), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("Alex", "Alexa"), 1.0 / 5.0);
}

TEST(NldTest, RangeIsZeroToOne) {
  // Lemma 2.
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 10);
    const std::string y = testutil::RandomString(&rng, 0, 10);
    const double nld = NormalizedLevenshtein(x, y);
    EXPECT_GE(nld, 0.0);
    EXPECT_LE(nld, 1.0);
  }
}

TEST(NldTest, IdentityAndSymmetry) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 10);
    const std::string y = testutil::RandomString(&rng, 0, 10);
    EXPECT_DOUBLE_EQ(NormalizedLevenshtein(x, x), 0.0);
    EXPECT_DOUBLE_EQ(NormalizedLevenshtein(x, y),
                     NormalizedLevenshtein(y, x));
    if (x != y) {
      EXPECT_GT(NormalizedLevenshtein(x, y), 0.0);
    }
  }
}

TEST(NldTest, TriangleInequalityOnRandomSamples) {
  // Theorem 1 (proved in [37]); sampled here as a regression property.
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string a = testutil::RandomString(&rng, 0, 8);
    const std::string b = testutil::RandomString(&rng, 0, 8);
    const std::string c = testutil::RandomString(&rng, 0, 8);
    const double ab = NormalizedLevenshtein(a, b);
    const double bc = NormalizedLevenshtein(b, c);
    const double ac = NormalizedLevenshtein(a, c);
    EXPECT_GE(ab + bc, ac - 1e-12)
        << "a=" << a << " b=" << b << " c=" << c;
  }
}

TEST(NldTest, Lemma3BoundsHold) {
  // 1 - |x|/|y| <= NLD <= 2/(|x|/|y| + 2) for |y| >= |x| > 0.
  Rng rng(14);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string x = testutil::RandomString(&rng, 1, 10);
    const std::string y = testutil::RandomString(&rng, 1, 10);
    const double nld = NormalizedLevenshtein(x, y);
    EXPECT_GE(nld, NldLowerBoundFromLengths(x.size(), y.size()) - 1e-12);
    EXPECT_LE(nld, NldUpperBoundFromLengths(x.size(), y.size()) + 1e-12);
  }
}

TEST(NldWithinTest, AgreesWithDirectComputation) {
  Rng rng(15);
  const double thresholds[] = {0.025, 0.05, 0.1, 0.15, 0.225, 0.4, 0.7};
  for (double t : thresholds) {
    for (int trial = 0; trial < 400; ++trial) {
      const std::string x = testutil::RandomString(&rng, 0, 10);
      const std::string y = testutil::RandomString(&rng, 0, 10);
      const bool expected = NormalizedLevenshtein(x, y) <= t + 1e-12;
      EXPECT_EQ(NldWithin(x, y, t), expected)
          << "x=" << x << " y=" << y << " T=" << t;
    }
  }
}

// ---- Lemma 8/9/10 property tests: exhaustive over the bound's inputs. ----

class NldLemmaTest : public ::testing::TestWithParam<double> {};

TEST_P(NldLemmaTest, Lemma8UpperBoundIsSound) {
  // Every pair with NLD <= T must satisfy the Lemma 8 LD bound.
  const double t = GetParam();
  Rng rng(16);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 9);
    const std::string y = testutil::RandomString(&rng, 0, 9);
    if (NormalizedLevenshtein(x, y) > t) continue;
    const uint32_t ld = Levenshtein(x, y);
    EXPECT_LE(ld, MaxLdForNld(t, y.size(), x.size() <= y.size()))
        << "x=" << x << " y=" << y;
  }
}

TEST_P(NldLemmaTest, Lemma9LengthConditionIsSound) {
  const double t = GetParam();
  Rng rng(17);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 9);
    const std::string y = testutil::RandomString(&rng, 0, 9);
    if (NormalizedLevenshtein(x, y) > t) continue;
    const size_t shorter = std::min(x.size(), y.size());
    const size_t longer = std::max(x.size(), y.size());
    EXPECT_GE(shorter, MinShorterLengthForNld(t, longer))
        << "x=" << x << " y=" << y;
    EXPECT_LE(longer, MaxLongerLengthForNld(t, shorter))
        << "x=" << x << " y=" << y;
  }
}

TEST_P(NldLemmaTest, Lemma10LowerBoundIsSound) {
  // Every pair with NLD > T must have LD strictly above the Lemma 10 floor.
  const double t = GetParam();
  Rng rng(18);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 9);
    const std::string y = testutil::RandomString(&rng, 0, 9);
    if (NormalizedLevenshtein(x, y) <= t) continue;
    const uint32_t ld = Levenshtein(x, y);
    EXPECT_GT(ld, MinLdForNldExceeding(t, y.size(), x.size() <= y.size()))
        << "x=" << x << " y=" << y;
  }
}

TEST_P(NldLemmaTest, MaxLongerLengthIsInverseOfMinShorter) {
  const double t = GetParam();
  for (size_t len_x = 0; len_x <= 40; ++len_x) {
    const size_t max_longer = MaxLongerLengthForNld(t, len_x);
    // The bound itself is feasible...
    EXPECT_LE(MinShorterLengthForNld(t, max_longer), len_x);
    // ...and one more character is not.
    EXPECT_GT(MinShorterLengthForNld(t, max_longer + 1), len_x);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, NldLemmaTest,
                         ::testing::Values(0.025, 0.05, 0.075, 0.1, 0.125,
                                           0.15, 0.175, 0.2, 0.225, 0.3,
                                           0.5));

TEST(NldTest, MinNldToDifferentStringIsTheNearestOtherString) {
  // Every string on {a, b} up to length 7 against every other string on
  // {a, b} up to length 8 (so one insertion is always in the set): the
  // nearest one is exactly the helper's value for the string's length.
  std::vector<std::string> strings = {""};
  for (size_t begin = 0; strings.back().size() < 8;) {
    const size_t end = strings.size();
    for (size_t i = begin; i < end; ++i) {
      strings.push_back(strings[i] + "a");
      strings.push_back(strings[i] + "b");
    }
    begin = end;
  }
  ASSERT_EQ(strings.size(), 511u);
  for (const std::string& x : strings) {
    if (x.size() > 7) continue;
    double nearest = 1.0;
    for (const std::string& y : strings) {
      if (y != x) nearest = std::min(nearest, NormalizedLevenshtein(x, y));
    }
    EXPECT_EQ(nearest, MinNldToDifferentString(x.size())) << "x=" << x;
  }
  EXPECT_EQ(MinNldToDifferentString(0), 1.0);
  EXPECT_EQ(MinNldToDifferentString(9), 0.1);
}

TEST(NldFromLdTest, ZeroDistanceIsZero) {
  EXPECT_DOUBLE_EQ(NldFromLd(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(NldFromLd(0, 5, 5), 0.0);
}

TEST(NldFromLdTest, TotalRewriteIsOne) {
  // Disjoint strings of equal length n: LD = n, NLD = 2n/(n+n+n)... not 1;
  // the extreme NLD = 1 needs one side empty: LD = |y|, NLD = 2|y|/2|y|.
  EXPECT_DOUBLE_EQ(NldFromLd(7, 0, 7), 1.0);
}

}  // namespace
}  // namespace tsj
