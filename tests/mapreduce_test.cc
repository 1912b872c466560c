#include "mapreduce/mapreduce.h"

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace tsj {
namespace {

// Canonical word count: map emits (word, 1), reduce sums.
std::vector<std::pair<std::string, int>> WordCount(
    const std::vector<std::string>& docs, const MapReduceOptions& options,
    JobStats* stats = nullptr) {
  auto result = RunMapReduceSorted<std::string, std::string, int,
                                   std::pair<std::string, int>>(
      "wordcount", docs,
      [](const std::string& doc, PartitionedEmitter<std::string, int>* out) {
        std::string word;
        for (char c : doc) {
          if (c == ' ') {
            if (!word.empty()) out->Emit(word, 1);
            word.clear();
          } else {
            word.push_back(c);
          }
        }
        if (!word.empty()) out->Emit(word, 1);
      },
      [](const std::string& word, std::span<int> values,
         std::vector<std::pair<std::string, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(word, total);
      },
      options, stats);
  std::sort(result.begin(), result.end());
  return result;
}

TEST(MapReduceTest, WordCountBasic) {
  const std::vector<std::string> docs = {"a b a", "b c", "a"};
  const auto counts = WordCount(docs, {});
  const std::vector<std::pair<std::string, int>> expected = {
      {"a", 3}, {"b", 2}, {"c", 1}};
  EXPECT_EQ(counts, expected);
}

TEST(MapReduceTest, EmptyInput) {
  const auto counts = WordCount({}, {});
  EXPECT_TRUE(counts.empty());
}

TEST(MapReduceTest, ResultIndependentOfWorkerAndPartitionCount) {
  std::vector<std::string> docs;
  for (int i = 0; i < 500; ++i) {
    docs.push_back("w" + std::to_string(i % 37) + " w" +
                   std::to_string(i % 11));
  }
  const auto reference = WordCount(docs, {});
  for (size_t workers : {1u, 2u, 7u}) {
    for (size_t partitions : {1u, 3u, 64u, 257u}) {
      MapReduceOptions options;
      options.num_workers = workers;
      options.num_partitions = partitions;
      EXPECT_EQ(WordCount(docs, options), reference)
          << "workers=" << workers << " partitions=" << partitions;
    }
  }
}

TEST(MapReduceTest, StatsCountRecordsCorrectly) {
  const std::vector<std::string> docs = {"a b a", "b c", "a"};
  JobStats stats;
  WordCount(docs, {}, &stats);
  EXPECT_EQ(stats.name, "wordcount");
  EXPECT_EQ(stats.input_records, 3u);
  EXPECT_EQ(stats.map_output_records, 6u);  // six word occurrences
  EXPECT_EQ(stats.num_groups, 3u);          // a, b, c
  EXPECT_EQ(stats.reduce_output_records, 3u);
}

TEST(MapReduceTest, ReducerSeesAllValuesForItsKey) {
  // A skewed key: one group receives 1000 values; they must all arrive at
  // a single reduce invocation.
  std::vector<int> inputs(1000, 7);
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, size_t>>(
      "skew", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) { out->Emit(1, v); },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, size_t>>* out) {
        out->emplace_back(key, values.size());
      },
      {});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].second, 1000u);
}

TEST(MapReduceTest, MapCanEmitNothing) {
  auto result = RunMapReduceSorted<int, int, int, int>(
      "empty-map", {1, 2, 3},
      [](const int&, PartitionedEmitter<int, int>*) {},
      [](const int&, std::span<int>, std::vector<int>*) {}, {});
  EXPECT_TRUE(result.empty());
}

TEST(MapReduceTest, PairKeysWork) {
  using Key = std::pair<uint32_t, uint32_t>;
  std::vector<int> inputs = {1, 2, 3, 4, 5, 6};
  auto result = RunMapReduceSorted<int, Key, int, std::pair<Key, int>>(
      "pair-keys", inputs,
      [](const int& v, PartitionedEmitter<Key, int>* out) {
        out->Emit({static_cast<uint32_t>(v % 2), static_cast<uint32_t>(v % 3)},
                  v);
      },
      [](const Key& key, std::span<int> values,
         std::vector<std::pair<Key, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(key, total);
      },
      {});
  std::map<Key, int> by_key(result.begin(), result.end());
  EXPECT_EQ(by_key[Key(0u, 0u)], 6);  // v = 6
  EXPECT_EQ(by_key[Key(1u, 1u)], 1);  // v = 1
  EXPECT_EQ(by_key[Key(0u, 1u)], 4);  // v = 4
  EXPECT_EQ(by_key.size(), 6u);
}

TEST(MapReduceTest, WallTimesAreRecorded) {
  JobStats stats;
  WordCount({"a b c d e f g"}, {}, &stats);
  EXPECT_GE(stats.map_wall_seconds, 0.0);
  EXPECT_GE(stats.shuffle_wall_seconds, 0.0);
  EXPECT_GE(stats.reduce_wall_seconds, 0.0);
  EXPECT_GE(stats.total_wall_seconds(), 0.0);
}

TEST(MapReduceTest, SinglePartitionStillGroupsCorrectly) {
  MapReduceOptions options;
  options.num_partitions = 1;
  const auto counts = WordCount({"x y x", "y"}, options);
  const std::vector<std::pair<std::string, int>> expected = {{"x", 2},
                                                             {"y", 2}};
  EXPECT_EQ(counts, expected);
}

TEST(MapReduceTest, ManyMorePartitionsThanKeys) {
  MapReduceOptions options;
  options.num_partitions = 1000;
  const auto counts = WordCount({"a b", "b"}, options);
  const std::vector<std::pair<std::string, int>> expected = {{"a", 1},
                                                             {"b", 2}};
  EXPECT_EQ(counts, expected);
}

}  // namespace
}  // namespace tsj
