#include "massjoin/partition.h"

#include <string>
#include <vector>

#include "common/random.h"
#include "distance/levenshtein.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace tsj {
namespace {

TEST(EvenPartitionTest, CoversStringExactly) {
  for (size_t len = 0; len <= 20; ++len) {
    for (size_t k = 1; k <= 6; ++k) {
      const auto segments = EvenPartition(len, k);
      ASSERT_EQ(segments.size(), k);
      uint32_t pos = 0;
      for (const auto& seg : segments) {
        EXPECT_EQ(seg.start, pos);
        pos += seg.length;
      }
      EXPECT_EQ(pos, len);
    }
  }
}

TEST(EvenPartitionTest, SegmentLengthsDifferByAtMostOne) {
  for (size_t len = 0; len <= 30; ++len) {
    for (size_t k = 1; k <= 8; ++k) {
      const auto segments = EvenPartition(len, k);
      uint32_t min_len = UINT32_MAX, max_len = 0;
      for (const auto& seg : segments) {
        min_len = std::min(min_len, seg.length);
        max_len = std::max(max_len, seg.length);
      }
      EXPECT_LE(max_len - min_len, 1u) << "len=" << len << " k=" << k;
    }
  }
}

TEST(EvenPartitionTest, ShorterSegmentsFirst) {
  const auto segments = EvenPartition(10, 3);  // 3, 3, 4
  EXPECT_EQ(segments[0].length, 3u);
  EXPECT_EQ(segments[1].length, 3u);
  EXPECT_EQ(segments[2].length, 4u);
}

TEST(EvenPartitionTest, MoreSegmentsThanCharacters) {
  const auto segments = EvenPartition(2, 4);  // two empty + two of length 1
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[0].length, 0u);
  EXPECT_EQ(segments[1].length, 0u);
  EXPECT_EQ(segments[2].length, 1u);
  EXPECT_EQ(segments[3].length, 1u);
}

TEST(StartRangeTest, ZeroTauEqualLengthPinsExactPosition) {
  // tau = 0: the only admissible start is the segment's own position.
  const auto segments = EvenPartition(8, 1);
  const StartRange range = SubstringStartRange(8, 8, 0, 0, segments[0]);
  EXPECT_EQ(range.lo, 0);
  EXPECT_EQ(range.hi, 0);
}

// The completeness guarantee behind TSJ's candidate generation (Lemma 7 +
// multi-match-aware selection): for ANY pair within edit distance tau, at
// least one segment of the shorter string appears in the longer string at
// a start position inside the selection window.
class SelectionCompletenessTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static bool SignatureMatchExists(const std::string& shorter,
                                   const std::string& longer, uint32_t tau) {
    const auto segments = EvenPartition(shorter.size(), tau + 1);
    for (size_t i = 0; i < segments.size(); ++i) {
      const StartRange range = SubstringStartRange(
          longer.size(), shorter.size(), tau, i, segments[i]);
      const std::string_view seg_text =
          std::string_view(shorter).substr(segments[i].start,
                                           segments[i].length);
      for (int64_t start = range.lo; start <= range.hi; ++start) {
        if (ExtractChunk(longer, start, segments[i]) == seg_text) {
          return true;
        }
      }
    }
    return false;
  }
};

TEST_P(SelectionCompletenessTest, EverySimilarPairSharesASignature) {
  const uint32_t tau = GetParam();
  Rng rng(777 + tau);
  int exercised = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string a = testutil::RandomString(&rng, 1, 10, 3);
    std::string b = a;
    const int edits = static_cast<int>(rng.Uniform(tau + 1));
    for (int e = 0; e < edits; ++e) b = testutil::RandomEdit(&rng, b, 3);
    if (Levenshtein(a, b) > tau) continue;
    const std::string& shorter = a.size() <= b.size() ? a : b;
    const std::string& longer = a.size() <= b.size() ? b : a;
    ++exercised;
    EXPECT_TRUE(SignatureMatchExists(shorter, longer, tau))
        << "a=" << a << " b=" << b << " tau=" << tau;
  }
  EXPECT_GT(exercised, 500);
}

TEST_P(SelectionCompletenessTest, ExhaustiveOverShortBinaryStrings) {
  // Exhaustive check over all pairs of strings of length <= 5 on {a, b}.
  const uint32_t tau = GetParam();
  std::vector<std::string> universe = {""};
  for (int len = 1; len <= 5; ++len) {
    std::vector<std::string> next;
    for (const auto& s : universe) {
      if (s.size() == static_cast<size_t>(len) - 1) {
        next.push_back(s + "a");
        next.push_back(s + "b");
      }
    }
    universe.insert(universe.end(), next.begin(), next.end());
  }
  for (const auto& a : universe) {
    for (const auto& b : universe) {
      if (a.size() > b.size()) continue;
      if (Levenshtein(a, b) > tau) continue;
      EXPECT_TRUE(SignatureMatchExists(a, b, tau))
          << "a=" << a << " b=" << b << " tau=" << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, SelectionCompletenessTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(StartRangeTest, WindowIsNeverWiderThanNaiveBound) {
  // The multi-match-aware window must be contained in the naive
  // [p - tau, p + delta + tau] window.
  Rng rng(91);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t lx = 1 + rng.Uniform(10);
    const size_t delta = rng.Uniform(5);
    const size_t ly = lx + delta;
    const uint32_t tau = static_cast<uint32_t>(rng.Uniform(5));
    const auto segments = EvenPartition(lx, tau + 1);
    for (size_t i = 0; i < segments.size(); ++i) {
      const StartRange range =
          SubstringStartRange(ly, lx, tau, i, segments[i]);
      if (range.empty()) continue;
      const int64_t p = segments[i].start;
      EXPECT_GE(range.lo, p - static_cast<int64_t>(tau));
      EXPECT_LE(range.hi,
                p + static_cast<int64_t>(delta) + static_cast<int64_t>(tau));
      // Starts must be valid substring positions.
      EXPECT_GE(range.lo, 0);
      EXPECT_LE(range.hi + segments[i].length, static_cast<int64_t>(ly));
    }
  }
}

}  // namespace
}  // namespace tsj
