#include "tokenized/corpus.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
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
  EXPECT_TRUE(std::ranges::equal(corpus.length_histogram(id),
                                 std::vector<uint32_t>{2, 4, 5}));
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

// The flat layout against a per-string model: 10,000 random strings of
// 0-6 tokens of 0-20 characters, in which the token-free {}, the blanks
// {""} and {"", ""}, and tokens longer than libstdc++'s 15-character SSO
// buffer occur interleaved. Half the tokens repeat an earlier one, so
// interning finds long and short texts alike. The model is computed from
// the TokenizedStrings alone, with token ids assigned by first occurrence.
TEST(CorpusTest, FlatLayoutMatchesPerStringModel) {
  Rng rng(20261019);
  std::vector<TokenizedString> strings;
  std::vector<std::string> drawn;
  for (int i = 0; i < 10000; ++i) {
    switch (rng.Uniform(40)) {
      case 0:
        strings.push_back({});
        continue;
      case 1:
        strings.push_back({""});
        continue;
      case 2:
        strings.push_back({"", ""});
        continue;
    }
    TokenizedString tokens(rng.Uniform(7));
    for (std::string& token : tokens) {
      if (!drawn.empty() && rng.Uniform(2) == 0) {
        token = drawn[rng.Uniform(drawn.size())];
        continue;
      }
      token.resize(rng.Uniform(21));
      for (char& c : token) c = static_cast<char>('a' + rng.Uniform(3));
      drawn.push_back(token);
    }
    strings.push_back(std::move(tokens));
  }
  auto count = [&strings](const TokenizedString& shape) {
    return std::count(strings.begin(), strings.end(), shape);
  };
  ASSERT_GT(count({}), 0);
  ASSERT_GT(count({""}), 0);
  ASSERT_GT(count({"", ""}), 0);
  ASSERT_GT(std::count_if(drawn.begin(), drawn.end(),
                          [](const std::string& t) { return t.size() > 15; }),
            0);

  Corpus corpus;
  std::map<std::string, TokenId> model_ids;
  std::vector<std::string> model_texts;
  std::vector<uint32_t> model_frequency;
  for (const TokenizedString& tokens : strings) {
    corpus.AddString(tokens);
    std::set<TokenId> distinct;
    for (const std::string& token : tokens) {
      const auto [it, inserted] =
          model_ids.emplace(token, static_cast<TokenId>(model_texts.size()));
      if (inserted) {
        model_texts.push_back(token);
        model_frequency.push_back(0);
      }
      distinct.insert(it->second);
    }
    for (const TokenId id : distinct) ++model_frequency[id];
  }

  ASSERT_EQ(corpus.size(), strings.size());
  ASSERT_EQ(corpus.num_distinct_tokens(), model_texts.size());
  for (TokenId id = 0; id < model_texts.size(); ++id) {
    EXPECT_EQ(corpus.token_text(id), model_texts[id]) << "token " << id;
  }
  EXPECT_EQ(corpus.ComputeTokenStringFrequencies(), model_frequency);
  for (StringId s = 0; s < strings.size(); ++s) {
    const TokenizedString& tokens = strings[s];
    std::vector<TokenId> ids;
    std::vector<uint32_t> lengths;
    size_t aggregate = 0;
    CharBag bag{};
    for (const std::string& token : tokens) {
      ids.push_back(model_ids.at(token));
      lengths.push_back(static_cast<uint32_t>(token.size()));
      aggregate += token.size();
      for (const char c : token) {
        uint8_t& bucket = bag[static_cast<unsigned char>(c) % kCharBagBuckets];
        bucket = static_cast<uint8_t>(std::min(bucket + 1, 255));
      }
    }
    std::sort(lengths.begin(), lengths.end());
    EXPECT_TRUE(std::ranges::equal(corpus.tokens(s), ids)) << "string " << s;
    EXPECT_TRUE(std::ranges::equal(corpus.length_histogram(s), lengths))
        << "string " << s;
    EXPECT_EQ(corpus.aggregate_length(s), aggregate) << "string " << s;
    EXPECT_EQ(corpus.char_bag(s), bag) << "string " << s;
    EXPECT_EQ(corpus.Materialize(s), tokens) << "string " << s;
  }
}

}  // namespace
}  // namespace tsj
