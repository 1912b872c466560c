#include "tokenized/corpus_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

TEST(CorpusIoTest, ReadsOneRecordPerLine) {
  std::istringstream input("Barak Obama\nJohn Smith\n");
  const LoadedCorpus loaded = ReadCorpus(input);
  ASSERT_EQ(loaded.corpus.size(), 2u);
  EXPECT_EQ(loaded.raw_lines[0], "Barak Obama");
  EXPECT_EQ(loaded.corpus.Materialize(0),
            (TokenizedString{"barak", "obama"}));
}

TEST(CorpusIoTest, HandlesEmptyLinesAndCrlf) {
  std::istringstream input("a b\r\n\nx\r\n");
  const LoadedCorpus loaded = ReadCorpus(input);
  ASSERT_EQ(loaded.corpus.size(), 3u);
  EXPECT_EQ(loaded.corpus.Materialize(0), (TokenizedString{"a", "b"}));
  EXPECT_TRUE(loaded.corpus.Materialize(1).empty());
  EXPECT_EQ(loaded.raw_lines[1], "");
  EXPECT_EQ(loaded.corpus.Materialize(2), (TokenizedString{"x"}));
}

TEST(CorpusIoTest, EmptyStream) {
  std::istringstream input("");
  EXPECT_EQ(ReadCorpus(input).corpus.size(), 0u);
}

TEST(CorpusIoTest, CustomTokenizerRespected) {
  TokenizerOptions options;
  options.lowercase = false;
  std::istringstream input("A B\n");
  const LoadedCorpus loaded = ReadCorpus(input, Tokenizer(options));
  EXPECT_EQ(loaded.corpus.Materialize(0), (TokenizedString{"A", "B"}));
}

TEST(CorpusIoTest, MissingFileIsNotFound) {
  const auto result = ReadCorpusFromFile("/nonexistent/path/names.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CorpusIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/corpus_io_test.txt";
  {
    std::ofstream out(path);
    out << "chan kalan\nchank alan\nzzz\n";
  }
  const auto loaded = ReadCorpusFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->corpus.size(), 3u);

  // End-to-end through the joiner, as the CLI tool does.
  TsjOptions options;
  options.threshold = 0.2;
  const auto pairs = TokenizedStringJoiner(options).SelfJoin(loaded->corpus);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);  // the paper's chan/kalan example, NSLD 0.2
  std::ostringstream out;
  WritePairs(out, *pairs);
  EXPECT_EQ(out.str(), "0\t1\t0.2\n");
}

TEST(CorpusIoTest, WritePairsFormat) {
  std::ostringstream out;
  WritePairs(out, std::vector<TsjPair>{{1, 2, 0.125}, {3, 4, 0.0}});
  EXPECT_EQ(out.str(), "1\t2\t0.125\n3\t4\t0\n");
}

TEST(CorpusIoTest, WritePairsRoundTripsNsld) {
  // 1/9 has no short decimal form; six significant digits would read back
  // as 0.111111, a different double.
  const double nsld = 1.0 / 9.0;
  std::ostringstream out;
  WritePairs(out, std::vector<TsjPair>{{5, 6, nsld}});
  const std::string line = out.str();
  ASSERT_EQ(line.rfind("5\t6\t", 0), 0u) << line;
  ASSERT_EQ(line.back(), '\n');
  const std::string text = line.substr(4, line.size() - 5);
  char* end = nullptr;
  const double read_back = std::strtod(text.c_str(), &end);
  EXPECT_EQ(*end, '\0') << text;
  EXPECT_EQ(read_back, nsld) << text;
}

}  // namespace
}  // namespace tsj
