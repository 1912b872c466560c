#include "tokenized/corpus.h"

#include <vector>

#include "gtest/gtest.h"

namespace tsj {
namespace {

TEST(CorpusTest, InternsDistinctTokensOnce) {
  Corpus corpus;
  const StringId a = corpus.AddString({"barak", "obama"});
  const StringId b = corpus.AddString({"obama", "michelle"});
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.num_distinct_tokens(), 3u);
  // "obama" resolves to the same TokenId in both strings.
  EXPECT_EQ(corpus.tokens(a)[1], corpus.tokens(b)[0]);
}

TEST(CorpusTest, PreservesMultisetOrderAndDuplicates) {
  Corpus corpus;
  const StringId id = corpus.AddString({"ana", "ana", "banana"});
  ASSERT_EQ(corpus.tokens(id).size(), 3u);
  EXPECT_EQ(corpus.tokens(id)[0], corpus.tokens(id)[1]);
  EXPECT_EQ(corpus.token_text(corpus.tokens(id)[2]), "banana");
}

TEST(CorpusTest, AggregateLengthAndHistogram) {
  Corpus corpus;
  const StringId id = corpus.AddString({"kalan", "ab", "chan"});
  EXPECT_EQ(corpus.aggregate_length(id), 11u);
  EXPECT_EQ(corpus.length_histogram(id), (std::vector<uint32_t>{2, 4, 5}));
}

TEST(CorpusTest, MaterializeRoundTrips) {
  Corpus corpus;
  const TokenizedString original = {"chan", "kalan"};
  const StringId id = corpus.AddString(original);
  EXPECT_EQ(corpus.Materialize(id), original);
}

TEST(CorpusTest, EmptyString) {
  Corpus corpus;
  const StringId id = corpus.AddString({});
  EXPECT_EQ(corpus.aggregate_length(id), 0u);
  EXPECT_TRUE(corpus.tokens(id).empty());
  EXPECT_TRUE(corpus.Materialize(id).empty());
}

TEST(CorpusTest, TokenStringFrequenciesCountStringsNotOccurrences) {
  Corpus corpus;
  corpus.AddString({"john", "john", "smith"});  // "john" twice in ONE string
  corpus.AddString({"john", "doe"});
  corpus.AddString({"mary", "smith"});
  const auto freq = corpus.ComputeTokenStringFrequencies();
  // Token ids are assigned in first-appearance order:
  // john=0, smith=1, doe=2, mary=3.
  EXPECT_EQ(freq[0], 2u);  // john: in 2 strings despite 3 occurrences
  EXPECT_EQ(freq[1], 2u);  // smith
  EXPECT_EQ(freq[2], 1u);  // doe
  EXPECT_EQ(freq[3], 1u);  // mary
}

TEST(CorpusTest, TokenStringFrequenciesCountNonAdjacentRepeatsOnce) {
  Corpus corpus;
  corpus.AddString({"a", "b", "a"});  // "a" twice, with "b" between
  corpus.AddString({"b"});
  const auto freq = corpus.ComputeTokenStringFrequencies();
  EXPECT_EQ(freq, (std::vector<uint32_t>{1, 2}));  // a=0, b=1
}

TEST(CorpusTest, TokenStringFrequenciesOfOneRepeatedToken) {
  Corpus corpus;
  corpus.AddString({"x", "x", "x"});
  corpus.AddString({"y"});
  corpus.AddString({"x"});
  const auto freq = corpus.ComputeTokenStringFrequencies();
  EXPECT_EQ(freq, (std::vector<uint32_t>{2, 1}));  // x=0, y=1
}

TEST(CorpusTest, TokenLengthMatchesText) {
  Corpus corpus;
  const StringId id = corpus.AddString({"abc", "de"});
  EXPECT_EQ(corpus.token_length(corpus.tokens(id)[0]), 3u);
  EXPECT_EQ(corpus.token_length(corpus.tokens(id)[1]), 2u);
}

TEST(CorpusTest, ManyStringsStressInterning) {
  Corpus corpus;
  for (int i = 0; i < 1000; ++i) {
    corpus.AddString({"shared", "tok" + std::to_string(i % 10)});
  }
  EXPECT_EQ(corpus.size(), 1000u);
  EXPECT_EQ(corpus.num_distinct_tokens(), 11u);
  const auto freq = corpus.ComputeTokenStringFrequencies();
  EXPECT_EQ(freq[0], 1000u);  // "shared"
}

}  // namespace
}  // namespace tsj
