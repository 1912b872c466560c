// Fast-tier unit tests for the Myers bit-parallel kernel, the one bounded
// Levenshtein of every join. The heavy randomized cross-validation lives in
// differential_test.cc (the "slow" ctest label); these pin known values,
// the clamp contract against the reference DP Levenshtein(), and the
// single-word/blocked seams, so a broken kernel fails within milliseconds.

#include "distance/myers.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/random.h"
#include "distance/levenshtein.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace tsj {
namespace {

// The exact distance through the bounded kernel: a bound of the longer
// length never binds.
uint32_t MyersExact(std::string_view x, std::string_view y) {
  return MyersBoundedLevenshtein(
      x, y, static_cast<uint32_t>(std::max(x.size(), y.size())));
}

// What the clamp contract asks for: LD when it is <= cap, else exactly
// cap + 1.
uint32_t Clamped(std::string_view x, std::string_view y, uint32_t cap) {
  return std::min(Levenshtein(x, y), cap + 1);
}

TEST(MyersLevenshteinTest, KnownValues) {
  EXPECT_EQ(MyersExact("", ""), 0u);
  EXPECT_EQ(MyersExact("abc", "abc"), 0u);
  EXPECT_EQ(MyersExact("", "abc"), 3u);
  EXPECT_EQ(MyersExact("abc", ""), 3u);
  EXPECT_EQ(MyersExact("kitten", "sitting"), 3u);
  EXPECT_EQ(MyersExact("flaw", "lawn"), 2u);
  EXPECT_EQ(MyersExact("Thomson", "Thompson"), 1u);
  EXPECT_EQ(MyersExact("Alex", "Alexa"), 1u);
}

TEST(MyersLevenshteinTest, MatchesBandedDpOnRandomStrings) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 20, 4);
    const std::string y = testutil::RandomString(&rng, 0, 20, 4);
    EXPECT_EQ(MyersExact(x, y), Levenshtein(x, y))
        << "x=" << x << " y=" << y;
  }
}

TEST(MyersLevenshteinTest, ExactAt64And65CharPatterns) {
  // The single-word/blocked seam: patterns of exactly 64 and 65 chars.
  Rng rng(6465);
  for (const size_t len : {64u, 65u}) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::string x = testutil::RandomString(&rng, len, len, 4);
      const std::string y = testutil::RandomString(&rng, len, len + 4, 4);
      EXPECT_EQ(MyersExact(x, y), Levenshtein(x, y)) << "len=" << len;
    }
  }
}

// ---- The clamp contract: exact when <= cap, else exactly cap + 1. ------

class BoundedLevenshteinTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BoundedLevenshteinTest, AgreesWithExactUpToBound) {
  const uint32_t bound = GetParam();
  Rng rng(1000 + bound);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 14);
    const std::string y = testutil::RandomString(&rng, 0, 14);
    const uint32_t exact = Levenshtein(x, y);
    const uint32_t bounded = MyersBoundedLevenshtein(x, y, bound);
    if (exact <= bound) {
      EXPECT_EQ(bounded, exact) << "x=" << x << " y=" << y;
    } else {
      EXPECT_EQ(bounded, bound + 1) << "x=" << x << " y=" << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, BoundedLevenshteinTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u, 20u));

TEST(BoundedLevenshteinTest, LengthDifferenceFastPath) {
  EXPECT_EQ(MyersBoundedLevenshtein("ab", "abcdefgh", 2), 3u);
  EXPECT_EQ(MyersBoundedLevenshtein("abcdefgh", "ab", 2), 3u);
}

// Regression for the silent-cap smell: when ||x| - |y|| > cap, the
// early-out must fire before affix trimming and return EXACTLY cap + 1 —
// never the true distance, never some other value above the cap. The
// pairs below share long affixes precisely so a trim-first implementation
// would take a different route to the answer; the pinned value may not
// change either way.
TEST(BoundedLevenshteinTest, LengthGapReturnsExactlyCapPlusOne) {
  struct Case {
    std::string x, y;
  };
  const Case cases[] = {
      {"prefix_short_suffix", "prefix_muchmuchlonger_suffix"},
      {"aaaaaaaaaab", "aaaaaaaaaabbbbbbbbbb"},  // shared 11-char prefix
      {"", "0123456789"},
      {"core", "prefixcoresuffix"},
  };
  for (const auto& c : cases) {
    const size_t gap = c.y.size() > c.x.size() ? c.y.size() - c.x.size()
                                               : c.x.size() - c.y.size();
    ASSERT_GT(gap, 0u);
    for (uint32_t cap = 0; cap < gap; ++cap) {
      EXPECT_EQ(MyersBoundedLevenshtein(c.x, c.y, cap), cap + 1)
          << "x=" << c.x << " y=" << c.y << " cap=" << cap;
      EXPECT_EQ(MyersBoundedLevenshtein(c.y, c.x, cap), cap + 1)
          << "(swapped) cap=" << cap;
    }
  }
}

// The clamp contract holds beyond the trivial length gap too: any
// distance above the cap comes back as exactly cap + 1.
TEST(BoundedLevenshteinTest, OverCapAlwaysClampsToCapPlusOne) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 12, 3);
    const std::string y = testutil::RandomString(&rng, 0, 12, 3);
    const uint32_t exact = Levenshtein(x, y);
    for (uint32_t cap = 0; cap < exact; ++cap) {
      EXPECT_EQ(MyersBoundedLevenshtein(x, y, cap), cap + 1)
          << "x=" << x << " y=" << y << " cap=" << cap;
    }
  }
}

TEST(BoundedLevenshteinTest, ZeroBoundIsEqualityTest) {
  EXPECT_EQ(MyersBoundedLevenshtein("", "", 0), 0u);
  EXPECT_EQ(MyersBoundedLevenshtein("same", "same", 0), 0u);
  EXPECT_EQ(MyersBoundedLevenshtein("same", "sane", 0), 1u);
}

TEST(MyersBoundedLevenshteinTest, SharesTheClampContract) {
  Rng rng(1234);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 14, 3);
    const std::string y = testutil::RandomString(&rng, 0, 14, 3);
    for (const uint32_t cap : {0u, 1u, 3u, 8u, 100u}) {
      EXPECT_EQ(MyersBoundedLevenshtein(x, y, cap), Clamped(x, y, cap))
          << "x=" << x << " y=" << y << " cap=" << cap;
    }
  }
}

TEST(MyersBoundedLevenshteinTest, SmallCapContract) {
  // The bound <= 1 decision is O(1) on the trimmed cores (see myers.h);
  // pin every shape of that contract at cap 1 (cap 0 is
  // BoundedLevenshteinTest.ZeroBoundIsEqualityTest).
  // Accepted: empty-core insert/delete and 1x1 substitution cores.
  EXPECT_EQ(MyersBoundedLevenshtein("ab", "aXb", 1), 1u);   // mid insert
  EXPECT_EQ(MyersBoundedLevenshtein("Alex", "Alexa", 1), 1u);
  EXPECT_EQ(MyersBoundedLevenshtein("a", "b", 1), 1u);
  EXPECT_EQ(MyersBoundedLevenshtein("abcde", "abXde", 1), 1u);
  EXPECT_EQ(MyersBoundedLevenshtein("x", "", 1), 1u);
  // Rejected: exactly 2, never the true distance.
  EXPECT_EQ(MyersBoundedLevenshtein("ab", "cd", 1), 2u);     // true LD 2
  EXPECT_EQ(MyersBoundedLevenshtein("ab", "ba", 1), 2u);     // transposed
  EXPECT_EQ(MyersBoundedLevenshtein("abc", "acb", 1), 2u);
  EXPECT_EQ(MyersBoundedLevenshtein("kitten", "sitting", 1), 2u);  // LD 3
  EXPECT_EQ(MyersBoundedLevenshtein("aXb", "aYcb", 1), 2u);  // 1x2 cores
  EXPECT_EQ(MyersBoundedLevenshtein("abcdefgh", "hgfedcba", 1), 2u);
  // Exhaustive cross-check at caps 0 and 1 on a dense small family.
  Rng rng(11);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string x = testutil::RandomString(&rng, 0, 8, 2);
    const std::string y = testutil::RandomString(&rng, 0, 8, 2);
    for (const uint32_t cap : {0u, 1u}) {
      ASSERT_EQ(MyersBoundedLevenshtein(x, y, cap), Clamped(x, y, cap))
          << "x=" << x << " y=" << y << " cap=" << cap;
    }
  }
}

TEST(MyersBoundedLevenshteinTest, LengthGapReturnsExactlyCapPlusOne) {
  // Patterns past the 64-char word: the early-out answers before the
  // blocked kernel would run.
  const std::string shorter(70, 'a');
  const std::string longer = shorter + "bcdefghij";
  for (uint32_t cap = 0; cap < 9; ++cap) {
    EXPECT_EQ(MyersBoundedLevenshtein(shorter, longer, cap), cap + 1);
    EXPECT_EQ(MyersBoundedLevenshtein(longer, shorter, cap), cap + 1);
  }
  EXPECT_EQ(MyersBoundedLevenshtein(shorter, longer, 9), 9u);
}

TEST(MyersBoundedLevenshteinTest, HandlesHighBytes) {
  // 8-bit-clean Peq indexing: bytes >= 0x80 (signed-char traps).
  const std::string a = "\xE2\x82\xAC caf\xC3\xA9";
  const std::string b = "\xE2\x82\xAC cafe";
  EXPECT_EQ(MyersExact(a, b), Levenshtein(a, b));
  EXPECT_EQ(MyersBoundedLevenshtein(a, b, 1), Clamped(a, b, 1));
}

}  // namespace
}  // namespace tsj
