#include "distance/levenshtein.h"

#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace tsj {
namespace {

// Textbook reference implementation, deliberately naive.
uint32_t ReferenceLd(const std::string& x, const std::string& y) {
  std::vector<std::vector<uint32_t>> d(x.size() + 1,
                                       std::vector<uint32_t>(y.size() + 1));
  for (size_t i = 0; i <= x.size(); ++i) d[i][0] = static_cast<uint32_t>(i);
  for (size_t j = 0; j <= y.size(); ++j) d[0][j] = static_cast<uint32_t>(j);
  for (size_t i = 1; i <= x.size(); ++i) {
    for (size_t j = 1; j <= y.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (x[i - 1] == y[j - 1] ? 0u : 1u)});
    }
  }
  return d[x.size()][y.size()];
}

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  // The paper's Sec. II-C examples.
  EXPECT_EQ(Levenshtein("Thomson", "Thompson"), 1u);
  EXPECT_EQ(Levenshtein("Alex", "Alexa"), 1u);
  // Sec. II-D examples.
  EXPECT_EQ(Levenshtein("chan", "chank"), 1u);
  EXPECT_EQ(Levenshtein("kalan", "alan"), 1u);
}

TEST(LevenshteinTest, SingleEditKinds) {
  EXPECT_EQ(Levenshtein("abc", "abxc"), 1u);  // insertion
  EXPECT_EQ(Levenshtein("abc", "ac"), 1u);    // deletion
  EXPECT_EQ(Levenshtein("abc", "axc"), 1u);   // substitution
}

TEST(LevenshteinTest, MatchesReferenceOnRandomStrings) {
  Rng rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 12);
    const std::string y = testutil::RandomString(&rng, 0, 12);
    EXPECT_EQ(Levenshtein(x, y), ReferenceLd(x, y))
        << "x=" << x << " y=" << y;
  }
}

TEST(LevenshteinTest, MetricAxiomsOnRandomSamples) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = testutil::RandomString(&rng, 0, 8);
    const std::string b = testutil::RandomString(&rng, 0, 8);
    const std::string c = testutil::RandomString(&rng, 0, 8);
    EXPECT_EQ(Levenshtein(a, a), 0u);
    EXPECT_EQ(Levenshtein(a, b), Levenshtein(b, a));
    EXPECT_GE(Levenshtein(a, b) + Levenshtein(b, c), Levenshtein(a, c));
  }
}

TEST(LevenshteinTest, EditSequenceNeverExceedsEditCount) {
  // Applying k random edits yields LD <= k.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string base = testutil::RandomString(&rng, 3, 10);
    std::string edited = base;
    const int k = static_cast<int>(rng.Uniform(4)) + 1;
    for (int e = 0; e < k; ++e) edited = testutil::RandomEdit(&rng, edited);
    EXPECT_LE(Levenshtein(base, edited), static_cast<uint32_t>(k));
  }
}

}  // namespace
}  // namespace tsj
