// Unit tests of the streaming sorted-shuffle engine (mapreduce.h):
// PartitionedEmitter's partition-at-emit scatter, RunMapReduceSorted's
// sorted-run grouping, the ShuffleGauge counters, and the fused two-stage
// execution of RunFusedMapReduceSorted.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "mapreduce/mapreduce.h"

namespace tsj {
namespace {

// Word count: the canonical job.
void CountWords(const std::string& doc, const auto& emit) {
  std::string word;
  for (char c : doc) {
    if (c == ' ') {
      if (!word.empty()) emit(word);
      word.clear();
    } else {
      word.push_back(c);
    }
  }
  if (!word.empty()) emit(word);
}

std::vector<std::pair<std::string, int>> SortedWordCount(
    const std::vector<std::string>& docs, const MapReduceOptions& options,
    JobStats* stats = nullptr) {
  auto result = RunMapReduceSorted<std::string, std::string, int,
                                   std::pair<std::string, int>>(
      "wordcount-sorted", docs,
      [](const std::string& doc, PartitionedEmitter<std::string, int>* out) {
        CountWords(doc, [&](const std::string& word) { out->Emit(word, 1); });
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

// The same counts computed directly, with no engine: the expected output.
std::vector<std::pair<std::string, int>> ExpectedWordCount(
    const std::vector<std::string>& docs) {
  std::map<std::string, int> counts;
  for (const std::string& doc : docs) {
    CountWords(doc, [&](const std::string& word) { ++counts[word]; });
  }
  return {counts.begin(), counts.end()};
}

TEST(PartitionedEmitterTest, ScattersByStableKeyHash) {
  PartitionedEmitter<uint32_t, int> emitter(8);
  StableHash hasher;
  for (uint32_t key = 0; key < 100; ++key) {
    emitter.Emit(key, static_cast<int>(key));
  }
  EXPECT_EQ(emitter.size(), 100u);
  EXPECT_EQ(emitter.num_partitions(), 8u);
  size_t total = 0;
  for (size_t p = 0; p < emitter.num_partitions(); ++p) {
    for (const auto& [key, value] : emitter.bucket(p)) {
      EXPECT_EQ(hasher(key) % 8, p) << "key " << key << " in wrong bucket";
      ++total;
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(PartitionedEmitterTest, ZeroPartitionsClampsToOne) {
  PartitionedEmitter<uint32_t, int> emitter(0);
  emitter.Emit(7, 1);
  EXPECT_EQ(emitter.num_partitions(), 1u);
  EXPECT_EQ(emitter.bucket(0).size(), 1u);
}

TEST(MapReduceSortedTest, MatchesSerialWordCount) {
  std::vector<std::string> docs;
  for (int i = 0; i < 300; ++i) {
    docs.push_back("w" + std::to_string(i % 41) + " w" +
                   std::to_string(i % 13) + " w" + std::to_string(i % 7));
  }
  const auto expected = ExpectedWordCount(docs);
  ASSERT_EQ(expected.size(), 41u);  // w0..w40
  // w0 is the word of every i < 300 divisible by 41, by 13 and by 7.
  const std::pair<std::string, int> w0{"w0", 8 + 24 + 43};
  EXPECT_EQ(expected.front(), w0);
  EXPECT_EQ(SortedWordCount(docs, {}), expected);
}

TEST(MapReduceSortedTest, EmptyInput) {
  EXPECT_TRUE(SortedWordCount({}, {}).empty());
}

TEST(MapReduceSortedTest, ResultIndependentOfWorkerAndPartitionCount) {
  std::vector<std::string> docs;
  for (int i = 0; i < 400; ++i) {
    docs.push_back("w" + std::to_string(i % 37) + " w" +
                   std::to_string(i % 11));
  }
  const auto reference = SortedWordCount(docs, {});
  for (size_t workers : {1u, 2u, 7u}) {
    for (size_t partitions : {1u, 3u, 64u, 257u}) {
      MapReduceOptions options;
      options.num_workers = workers;
      options.num_partitions = partitions;
      EXPECT_EQ(SortedWordCount(docs, options), reference)
          << "workers=" << workers << " partitions=" << partitions;
    }
  }
}

TEST(MapReduceSortedTest, ReducerSeesOneContiguousRunPerKey) {
  // Every key must be reduced exactly once, with all of its values.
  std::vector<int> inputs(1000, 7);
  std::atomic<int> invocations{0};
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, size_t>>(
      "skew-sorted", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(1, v);
      },
      [&invocations](const int& key, std::span<int> values,
                     std::vector<std::pair<int, size_t>>* out) {
        invocations.fetch_add(1);
        out->emplace_back(key, values.size());
      },
      {});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].second, 1000u);
  EXPECT_EQ(invocations.load(), 1);
}

TEST(MapReduceSortedTest, ValuesKeepMapTaskOrderWithinARun) {
  // One worker, one map task, one partition: emission order must survive
  // the sort (stable, key-only) into the reduce run.
  MapReduceOptions options;
  options.num_workers = 1;
  options.num_partitions = 1;
  std::vector<int> inputs = {3, 1, 4, 1, 5, 9, 2, 6};
  auto result = RunMapReduceSorted<int, int, int, std::vector<int>>(
      "order", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(0, v);
      },
      [](const int&, std::span<int> values, std::vector<std::vector<int>>* out) {
        out->emplace_back(values.begin(), values.end());
      },
      options);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], inputs);
}

TEST(MapReduceSortedTest, ReducerMayMutateTheRunInPlace) {
  // The span is mutable: sorting it in place (the dedup-run idiom of
  // tsj/tsj.cc) must be safe.
  std::vector<int> inputs = {5, 3, 5, 1, 3, 3};
  auto result = RunMapReduceSorted<int, int, int, std::vector<int>>(
      "mutate", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(0, v);
      },
      [](const int&, std::span<int> values, std::vector<std::vector<int>>* out) {
        std::sort(values.begin(), values.end());
        const auto end = std::unique(values.begin(), values.end());
        out->emplace_back(values.begin(), end);
      },
      {});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (std::vector<int>{1, 3, 5}));
}

TEST(MapReduceSortedTest, StatsCountRecordsAndGroups) {
  std::vector<std::string> docs = {"a b a", "b c", "a"};
  JobStats stats;
  SortedWordCount(docs, {}, &stats);
  EXPECT_EQ(stats.name, "wordcount-sorted");
  EXPECT_EQ(stats.input_records, 3u);
  EXPECT_EQ(stats.map_output_records, 6u);  // six word occurrences
  EXPECT_EQ(stats.shuffle_records, 6u);
  EXPECT_EQ(stats.num_groups, 3u);  // a, b, c
  EXPECT_EQ(stats.reduce_output_records, 3u);
  // Every emitted record was shuffle-resident at some point.
  EXPECT_GE(stats.peak_shuffle_records, 6u);
}

TEST(ShuffleGaugeTest, TracksCurrentAndPeak) {
  ShuffleGauge gauge;
  EXPECT_EQ(gauge.current(), 0u);
  EXPECT_EQ(gauge.peak(), 0u);
  gauge.Add(10);
  gauge.Add(5);
  EXPECT_EQ(gauge.current(), 15u);
  EXPECT_EQ(gauge.peak(), 15u);
  gauge.Sub(12);
  EXPECT_EQ(gauge.current(), 3u);
  EXPECT_EQ(gauge.peak(), 15u);
  gauge.Add(4);
  EXPECT_EQ(gauge.peak(), 15u);  // 7 < 15: peak unchanged
}

TEST(ShuffleGaugeTest, PipelineGaugeMirrorsJobGauges) {
  // One shared gauge across two jobs observes a pipeline-wide peak at
  // least as high as either job's own, and drains back to zero.
  ShuffleGauge shared;
  MapReduceOptions options;
  options.shuffle_gauge = &shared;
  std::vector<std::string> docs(50, "x y z x");
  JobStats first, second;
  SortedWordCount(docs, options, &first);
  SortedWordCount(docs, options, &second);
  EXPECT_EQ(shared.current(), 0u);
  EXPECT_GE(shared.peak(), first.peak_shuffle_records);
  EXPECT_GE(shared.peak(), second.peak_shuffle_records);
}

// ---- Fused two-stage execution -------------------------------------------

// Reference for the fused pipeline: word count whose reduce re-keys each
// (word, count) group by the word's first letter, then a second stage sums
// counts per letter. Unfused = two RunMapReduceSorted calls.
std::vector<std::pair<char, int>> LetterTotalsUnfused(
    const std::vector<std::string>& docs,
    const std::vector<std::string>& extra_words,
    const MapReduceOptions& options) {
  auto counts = RunMapReduceSorted<std::string, std::string, int,
                                   std::pair<std::string, int>>(
      "stage1", docs,
      [](const std::string& doc, PartitionedEmitter<std::string, int>* out) {
        CountWords(doc, [&](const std::string& word) { out->Emit(word, 1); });
      },
      [](const std::string& word, std::span<int> values,
         std::vector<std::pair<std::string, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(word, total);
      },
      options);
  for (const std::string& word : extra_words) counts.emplace_back(word, 1);
  auto result = RunMapReduceSorted<std::pair<std::string, int>, char, int,
                                   std::pair<char, int>>(
      "stage2", counts,
      [](const std::pair<std::string, int>& wc,
         PartitionedEmitter<char, int>* out) {
        out->Emit(wc.first[0], wc.second);
      },
      [](const char& letter, std::span<int> values,
         std::vector<std::pair<char, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(letter, total);
      },
      options);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::pair<char, int>> LetterTotalsFused(
    const std::vector<std::string>& docs,
    const std::vector<std::string>& extra_words,
    const MapReduceOptions& options, JobStats* s1 = nullptr,
    JobStats* s2 = nullptr) {
  auto result = RunFusedMapReduceSorted<std::string, std::string, int,
                                        std::string, char, int,
                                        std::pair<char, int>>(
      "stage1", "stage2", docs,
      [](const std::string& doc, PartitionedEmitter<std::string, int>* out) {
        CountWords(doc, [&](const std::string& word) { out->Emit(word, 1); });
      },
      [](const std::string& word, std::span<int> values,
         PartitionedEmitter<char, int>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->Emit(word[0], total);
      },
      extra_words,
      [](const std::string& word, PartitionedEmitter<char, int>* out) {
        out->Emit(word[0], 1);
      },
      [](const char& letter, std::span<int> values,
         std::vector<std::pair<char, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(letter, total);
      },
      options, s1, s2);
  std::sort(result.begin(), result.end());
  return result;
}

TEST(FusedMapReduceTest, MatchesUnfusedTwoJobPipeline) {
  std::vector<std::string> docs;
  for (int i = 0; i < 200; ++i) {
    docs.push_back("alpha" + std::to_string(i % 17) + " beta" +
                   std::to_string(i % 5) + " gamma");
  }
  const std::vector<std::string> extra = {"delta", "alpha0", "zeta"};
  EXPECT_EQ(LetterTotalsFused(docs, extra, {}),
            LetterTotalsUnfused(docs, extra, {}));
}

TEST(FusedMapReduceTest, ResultIndependentOfWorkerAndPartitionCount) {
  std::vector<std::string> docs;
  for (int i = 0; i < 150; ++i) {
    docs.push_back("a" + std::to_string(i % 13) + " b" +
                   std::to_string(i % 7));
  }
  const std::vector<std::string> extra = {"c1", "c2"};
  const auto reference = LetterTotalsFused(docs, extra, {});
  for (size_t workers : {1u, 4u}) {
    for (size_t partitions : {1u, 7u, 64u}) {
      MapReduceOptions options;
      options.num_workers = workers;
      options.num_partitions = partitions;
      EXPECT_EQ(LetterTotalsFused(docs, extra, options), reference)
          << "workers=" << workers << " partitions=" << partitions;
    }
  }
}

TEST(FusedMapReduceTest, NoSideInputIsSupported) {
  std::vector<std::string> docs = {"aa ab", "ba aa"};
  JobStats s1, s2;
  const auto result = LetterTotalsFused(docs, {}, {}, &s1, &s2);
  EXPECT_EQ(result,
            (std::vector<std::pair<char, int>>{{'a', 3}, {'b', 1}}));
  EXPECT_EQ(s2.input_records, 0u);
}

TEST(FusedMapReduceTest, RecordsPerStageStats) {
  std::vector<std::string> docs = {"aa bb aa", "bb cc"};
  const std::vector<std::string> extra = {"dd"};
  JobStats s1, s2;
  LetterTotalsFused(docs, extra, {}, &s1, &s2);
  EXPECT_EQ(s1.name, "stage1");
  EXPECT_EQ(s2.name, "stage2");
  EXPECT_EQ(s1.input_records, 2u);
  EXPECT_EQ(s1.map_output_records, 5u);  // five word occurrences
  EXPECT_EQ(s1.num_groups, 3u);          // aa, bb, cc
  // Stage-1 reduce emitted one record per distinct word; the side input
  // added one more. All four entered stage 2's shuffle.
  EXPECT_EQ(s1.reduce_output_records, 3u);
  EXPECT_EQ(s2.shuffle_records, 4u);
  EXPECT_EQ(s2.map_output_records, 4u);
  EXPECT_EQ(s2.num_groups, 4u);  // a, b, c, d
  EXPECT_EQ(s2.reduce_output_records, 4u);
  // Stages share the fused job's gauge.
  EXPECT_EQ(s1.peak_shuffle_records, s2.peak_shuffle_records);
  EXPECT_GE(s1.peak_shuffle_records, 5u);
}

TEST(FusedMapReduceTest, PeakStaysBelowSumOfStagesOnExpansion) {
  // Stage 1 expands each record 16x. Run the same computation unfused
  // (materializing the intermediate) and fused; the fused peak must stay
  // below the unfused pipeline's, which co-hosts the intermediate vector
  // and stage 2's shuffle.
  std::vector<int> inputs(2000);
  for (int i = 0; i < 2000; ++i) inputs[i] = i;
  MapReduceOptions options;
  options.num_workers = 2;

  ShuffleGauge unfused_gauge;
  MapReduceOptions unfused_options = options;
  unfused_options.shuffle_gauge = &unfused_gauge;
  auto intermediate = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "expand", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        for (int r = 0; r < 16; ++r) out->Emit(v, r);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        for (int v : values) out->emplace_back(key % 100, v);
      },
      unfused_options);
  unfused_gauge.Add(intermediate.size());  // the materialized intermediate
  auto unfused = RunMapReduceSorted<std::pair<int, int>, int, int, int>(
      "sum", intermediate,
      [](const std::pair<int, int>& kv, PartitionedEmitter<int, int>* out) {
        out->Emit(kv.first, kv.second);
      },
      [](const int&, std::span<int> values, std::vector<int>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->push_back(total);
      },
      unfused_options);
  unfused_gauge.Sub(intermediate.size());

  ShuffleGauge fused_gauge;
  MapReduceOptions fused_options = options;
  fused_options.shuffle_gauge = &fused_gauge;
  auto fused = RunFusedMapReduceSorted<int, int, int, int, int, int, int>(
      "expand", "sum", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        for (int r = 0; r < 16; ++r) out->Emit(v, r);
      },
      [](const int& key, std::span<int> values,
         PartitionedEmitter<int, int>* out) {
        for (int v : values) out->Emit(key % 100, v);
      },
      /*stage2_side_inputs=*/std::vector<int>{},
      [](const int&, PartitionedEmitter<int, int>*) {},
      [](const int&, std::span<int> values, std::vector<int>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->push_back(total);
      },
      fused_options);

  std::sort(unfused.begin(), unfused.end());
  std::sort(fused.begin(), fused.end());
  EXPECT_EQ(fused, unfused);
  EXPECT_LT(fused_gauge.peak(), unfused_gauge.peak());
}

// ---- External-memory spill: budget boundaries (mapreduce/spill.h) --------

TEST(SpillBudgetBoundaryTest, BudgetExactlyEqualToBucketSizeDoesNotSpill) {
  SpillContext context(/*budget=*/10, /*dir=*/"", /*factory=*/nullptr);
  ASSERT_TRUE(context.Init().ok());
  PartitionedEmitter<int, int> emitter(4);
  emitter.EnableSpill(&context, /*share=*/10);
  // Exactly as many records as the share: the trigger is strictly
  // greater-than, so the bucket must stay in memory.
  for (int i = 0; i < 10; ++i) emitter.Emit(0, i);
  EXPECT_EQ(emitter.spilled_records(), 0u);
  EXPECT_EQ(emitter.size(), 10u);
  // One more record overflows the share and the full bucket spills.
  emitter.Emit(0, 10);
  EXPECT_EQ(emitter.spilled_records(), 11u);
  EXPECT_EQ(emitter.size(), 0u);
  size_t total_runs = 0;
  for (size_t p = 0; p < emitter.num_partitions(); ++p) {
    total_runs += emitter.spill_runs(p).size();
  }
  EXPECT_EQ(total_runs, 1u);
}

TEST(SpillBudgetBoundaryTest, KeyRunSplitAcrossSpillFilesIsOneSpan) {
  // A single key emitted 7 times under budget 2 spills as two 3-record
  // runs plus a 1-record residue — yet the reducer must see ONE
  // contiguous span of all 7 values, in emission order.
  MapReduceOptions options;
  options.num_workers = 1;
  options.num_partitions = 1;
  options.memory_budget_records = 2;
  const std::vector<int> inputs = {0};  // one input -> one map task
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::vector<int>>(
      "split-run", inputs,
      [](const int&, PartitionedEmitter<int, int>* out) {
        for (int i = 0; i < 7; ++i) out->Emit(42, i);
      },
      [](const int&, std::span<int> values,
         std::vector<std::vector<int>>* out) {
        out->emplace_back(values.begin(), values.end());
      },
      options, &stats);
  ASSERT_EQ(result.size(), 1u);  // exactly one reduce invocation
  EXPECT_EQ(result[0], (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_GE(stats.spill_files, 2u);       // the run was split on disk
  EXPECT_EQ(stats.spilled_records, 6u);   // two flushes of 3
  EXPECT_EQ(stats.map_output_records, 7u);
  EXPECT_EQ(stats.num_groups, 1u);
  EXPECT_TRUE(stats.spill_status.ok()) << stats.spill_status.ToString();
}

TEST(SpillBudgetBoundaryTest, ZeroRecordAndSingleRecordPartitionsRoundTrip) {
  // Budget 1 (the tightest): a single record never exceeds its producer's
  // share (floor 1), so it round-trips without spilling, while the other
  // 15 partitions stay empty and produce nothing.
  MapReduceOptions options;
  options.num_workers = 1;
  options.num_partitions = 16;
  options.memory_budget_records = 1;
  const std::vector<int> inputs = {0};
  JobStats stats;
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "tiny-budget", inputs,
      [](const int&, PartitionedEmitter<int, int>* out) {
        out->Emit(5, 50);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        out->emplace_back(key, static_cast<int>(values.size()));
      },
      options, &stats);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (std::pair<int, int>(5, 1)));
  EXPECT_EQ(stats.spilled_records, 0u);
  EXPECT_EQ(stats.num_groups, 1u);
  EXPECT_TRUE(stats.spill_status.ok());
}

TEST(SpillBudgetBoundaryTest, SortedSpillMatchesInMemoryAcrossBudgets) {
  std::vector<std::string> docs;
  for (int i = 0; i < 150; ++i) {
    docs.push_back("w" + std::to_string(i % 41) + " w" +
                   std::to_string(i % 13) + " w" + std::to_string(i % 7));
  }
  const auto reference = SortedWordCount(docs, {});
  for (const size_t budget : {size_t{1}, size_t{7}, size_t{64}}) {
    MapReduceOptions options;
    options.num_workers = 2;
    options.num_partitions = 7;
    options.memory_budget_records = budget;
    JobStats stats;
    EXPECT_EQ(SortedWordCount(docs, options, &stats), reference)
        << "budget=" << budget;
    EXPECT_GT(stats.spilled_records, 0u) << "budget=" << budget;
    EXPECT_GT(stats.spill_files, 1u) << "budget=" << budget;
    EXPECT_TRUE(stats.spill_status.ok()) << stats.spill_status.ToString();
    // Every emitted record is accounted for: on disk or in memory.
    EXPECT_EQ(stats.map_output_records, 450u);
  }
}

TEST(SpillBudgetBoundaryTest, FusedSpillMatchesInMemoryAcrossBudgets) {
  std::vector<std::string> docs;
  for (int i = 0; i < 120; ++i) {
    docs.push_back("alpha" + std::to_string(i % 17) + " beta" +
                   std::to_string(i % 5) + " gamma");
  }
  const std::vector<std::string> extra = {"delta", "alpha0", "zeta"};
  const auto reference = LetterTotalsFused(docs, extra, {});
  for (const size_t budget : {size_t{1}, size_t{7}, size_t{64}}) {
    MapReduceOptions options;
    options.num_workers = 2;
    options.num_partitions = 7;
    options.memory_budget_records = budget;
    JobStats s1, s2;
    EXPECT_EQ(LetterTotalsFused(docs, extra, options, &s1, &s2), reference)
        << "budget=" << budget;
    EXPECT_GT(s2.spilled_records, 0u) << "budget=" << budget;
    EXPECT_TRUE(s2.spill_status.ok()) << s2.spill_status.ToString();
  }
}

TEST(SpillBudgetBoundaryTest, ResidentGaugeHonorsTheBudget) {
  // The acceptance gauge: with the budget far below the in-memory peak,
  // peak_resident_records stays within budget + slack (one merge window
  // per reduce worker plus the flush trigger's one-record overshoot per
  // producer), while peak_shuffle_records of an unbudgeted run is much
  // higher.
  std::vector<std::string> docs;
  for (int i = 0; i < 300; ++i) {
    docs.push_back("k" + std::to_string(i % 97) + " k" +
                   std::to_string((i * 31) % 97) + " k" +
                   std::to_string((i * 57) % 97));
  }
  // Under the CC_SHUFFLE_SPILL_BUDGET CI override the "unbudgeted"
  // reference spills too, so the high-water comparison only holds in a
  // clean environment; the budget bound below holds either way.
  const bool env_forced = SpillBudgetFromEnv() > 0;
  JobStats unbudgeted;
  SortedWordCount(docs, {}, &unbudgeted);
  if (!env_forced) {
    ASSERT_GT(unbudgeted.peak_resident_records, 200u);
  }

  MapReduceOptions options;
  options.num_workers = 1;
  options.num_partitions = 7;
  options.memory_budget_records = 64;
  JobStats stats;
  const auto spilled = SortedWordCount(docs, options, &stats);
  EXPECT_EQ(spilled, SortedWordCount(docs, {}));
  EXPECT_GT(stats.spilled_records, 0u);
  // 97 distinct keys over 900 records: the largest merge window is <= 12
  // records (each key appears at most 4 times per generator term); 4 map
  // tasks overshoot by one record each; a small margin for transients.
  const uint64_t slack = 12 + 4 + 8;
  EXPECT_LE(stats.peak_resident_records,
            options.memory_budget_records + slack);
  if (!env_forced) {
    EXPECT_LT(stats.peak_resident_records,
              unbudgeted.peak_resident_records);
  }
}

}  // namespace
}  // namespace tsj
