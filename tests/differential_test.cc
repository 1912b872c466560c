// Randomized differential harness for the verification kernels (the
// "slow" ctest label; CI runs it as its own job).
//
// A wrong bit-vector or memo entry in the fast paths silently flips join
// decisions, so every fast kernel is pitted against the slowest, most
// obviously correct reference on tens of thousands of seeded random
// inputs:
//
//   * Myers bit-parallel LD (single-word and blocked) == banded DP ==
//     naive full-matrix DP, for every input family (ASCII, raw bytes,
//     UTF-8-ish sequences, long common affixes, all-equal, empty) and
//     cap family (0, 1, small, huge);
//   * BoundedSld on interned token-id spans (with and without the
//     TokenPairCache, exact and greedy aligning) == BoundedSld on the
//     materialized byte multisets, on random corpora (some with tokens
//     longer than 64 characters) and budgets;
//   * the fused TSJ pipeline (with the shuffle combiner and the
//     per-worker L1 verify-cache tier on, i.e. the defaults) == the
//     brute-force NSLD oracle (exact Hungarian, no filters, no cache:
//     BruteForceNsldSelfJoin, testutil::BruteForceRP) on the sorted
//     (pair, NSLD) set — a subset of it for exact-token matching — and ==
//     one serial in-memory run (1 worker, 1 partition) on the
//     candidate/filter counters, across dedup strategies, matchings,
//     worker and partition counts, for both SelfJoin and the
//     two-collection Join;
//   * each contention-relief toggle alone — L1 tier, combiner,
//     skew-adaptive partitioning — off vs the all-on default: the same
//     oracle result and counters (they may only move traffic and timing);
//   * the spill-forced pipeline (enable_shuffle_spill with
//     memory_budget_records tiny enough to force multi-file disk spills,
//     budgets {1, 7, 64} x workers x partitions x combiner on/off) == the
//     oracle and the serial in-memory counters — spill correctness is
//     dominated by rare boundary conditions (runs split across files,
//     re-combine at flush and merge), exactly what this sweep hammers.

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "distance/levenshtein.h"
#include "distance/myers.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "hmj/hmj.h"
#include "test_util.h"
#include "tokenized/bounds.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tokenized/token_pair_cache.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace {

// Naive full-matrix DP, deliberately the dumbest possible reference: no
// trimming, no banding, no bit tricks.
uint32_t NaiveLd(const std::string& x, const std::string& y) {
  std::vector<std::vector<uint32_t>> d(
      x.size() + 1, std::vector<uint32_t>(y.size() + 1, 0));
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

// One random string pair drawn from the harness's input families. Long
// variants (well past 64 chars) exercise the blocked Myers path.
std::pair<std::string, std::string> RandomPair(Rng* rng) {
  std::string x, y;
  switch (rng->Uniform(8)) {
    case 0:  // short ASCII over a tiny alphabet: collisions everywhere
      x = testutil::RandomString(rng, 0, 14, 3);
      y = testutil::RandomString(rng, 0, 14, 3);
      break;
    case 1:  // raw bytes, full 8-bit range
      x = testutil::RandomByteString(rng, 0, 20);
      y = testutil::RandomByteString(rng, 0, 20);
      break;
    case 2:  // UTF-8-ish multi-byte runs
      x = testutil::RandomUtf8ishString(rng, 0, 10);
      y = testutil::RandomUtf8ishString(rng, 0, 10);
      break;
    case 3:  // long common affixes around a small differing core
      x = testutil::RandomString(rng, 0, 6, 4);
      y = testutil::RandomString(rng, 0, 6, 4);
      testutil::AddCommonAffixes(rng, 40, &x, &y);
      break;
    case 4:  // all-equal (after possibly zero edits)
      x = testutil::RandomString(rng, 0, 30, 5);
      y = x;
      break;
    case 5:  // empty vs. anything
      x.clear();
      y = testutil::RandomString(rng, 0, 25, 5);
      if (rng->Bernoulli(0.5)) std::swap(x, y);
      break;
    case 6:  // edit chains: known-small distances on medium strings
      x = testutil::RandomString(rng, 5, 40, 6);
      y = x;
      for (uint64_t e = rng->Uniform(6); e > 0; --e) {
        y = testutil::RandomEdit(rng, y, 6);
      }
      break;
    default:  // long strings straddling the 64-char single-word limit
      x = testutil::RandomString(rng, 40, 150, 4);
      y = testutil::RandomString(rng, 40, 150, 4);
      if (rng->Bernoulli(0.3)) testutil::AddCommonAffixes(rng, 30, &x, &y);
      break;
  }
  return {x, y};
}

// The cap families of the harness: 0, 1, a small random cap, and a cap
// far beyond any generated distance.
std::vector<uint32_t> CapFamilies(Rng* rng) {
  return {0u, 1u, static_cast<uint32_t>(2 + rng->Uniform(8)), 1000000u};
}

TEST(DifferentialTest, MyersAgreesWithBandedAndNaiveDp) {
  Rng rng(20260726);
  constexpr int kPairs = 12000;
  for (int trial = 0; trial < kPairs; ++trial) {
    const auto [x, y] = RandomPair(&rng);
    const uint32_t naive = NaiveLd(x, y);
    ASSERT_EQ(Levenshtein(x, y), naive)
        << "trial=" << trial << " |x|=" << x.size() << " |y|=" << y.size();
    ASSERT_EQ(MyersLevenshtein(x, y), naive)
        << "trial=" << trial << " |x|=" << x.size() << " |y|=" << y.size();
    for (const uint32_t cap : CapFamilies(&rng)) {
      // The shared clamp contract: exact when <= cap, else exactly cap+1.
      const uint32_t expected = std::min(naive, cap + 1);
      ASSERT_EQ(BoundedLevenshtein(x, y, cap), expected)
          << "trial=" << trial << " cap=" << cap << " naive=" << naive
          << " |x|=" << x.size() << " |y|=" << y.size();
      ASSERT_EQ(MyersBoundedLevenshtein(x, y, cap), expected)
          << "trial=" << trial << " cap=" << cap << " naive=" << naive
          << " |x|=" << x.size() << " |y|=" << y.size();
    }
  }
}

// Focused single-word/blocked boundary sweep: every pattern length around
// the 64-char word limit, against the naive DP.
TEST(DifferentialTest, MyersWordBoundarySweep) {
  Rng rng(64646464);
  for (size_t len = 56; len <= 72; ++len) {
    for (int trial = 0; trial < 250; ++trial) {
      const std::string x = testutil::RandomString(&rng, len, len, 4);
      const std::string y =
          testutil::RandomString(&rng, len > 8 ? len - 8 : 0, len + 8, 4);
      const uint32_t naive = NaiveLd(x, y);
      ASSERT_EQ(MyersLevenshtein(x, y), naive) << "len=" << len;
      const uint32_t cap = static_cast<uint32_t>(rng.Uniform(12));
      ASSERT_EQ(MyersBoundedLevenshtein(x, y, cap),
                std::min(naive, cap + 1))
          << "len=" << len << " cap=" << cap;
    }
  }
}

// Random corpora for the SLD-level differential: small alphabet and token
// counts so duplicate tokens (within and across strings) are common. About
// one string in four also carries one long token: a 40-150-character draw
// over the same alphabet, half the time the corpus's shared long base,
// then a few random edits. Edges with such a token run the blocked Myers
// path (patterns longer than 64 characters), and long-vs-long edges off
// the shared base have small distances, so they land both within and
// beyond the row caps on either side of the word seam.
Corpus RandomCorpus(Rng* rng, size_t n) {
  const std::string long_base = testutil::RandomString(rng, 40, 150, 3);
  Corpus corpus;
  for (size_t s = 0; s < n; ++s) {
    TokenizedString tokens =
        testutil::RandomTokenizedString(rng, 0, 4, 0, 8, 3);
    if (rng->Uniform(4) == 0) {
      std::string long_token = rng->Bernoulli(0.5)
                                   ? long_base
                                   : testutil::RandomString(rng, 40, 150, 3);
      for (uint64_t e = rng->Uniform(5); e > 0; --e) {
        long_token = testutil::RandomEdit(rng, long_token, 3);
      }
      tokens.insert(tokens.begin() + rng->Uniform(tokens.size() + 1),
                    std::move(long_token));
    }
    corpus.AddString(tokens);
  }
  return corpus;
}

TEST(DifferentialTest, BoundedSldOnTokenIdsMatchesBytes) {
  Rng rng(987654321);
  constexpr int kRounds = 25;
  constexpr int kPairsPerRound = 450;  // > 10k pairs in total
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomCorpus(&rng, 30);
    TokenPairCache cache;  // shared across the round: warms up quickly
    SldVerifyScratch scratch;
    for (int trial = 0; trial < kPairsPerRound; ++trial) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(corpus.size()));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(corpus.size()));
      const size_t la = corpus.aggregate_length(a);
      const size_t lb = corpus.aggregate_length(b);
      // Budget families: 0, 1, a small cap, a threshold-derived budget,
      // and the unbounded ceiling.
      int64_t budget = 0;
      switch (rng.Uniform(5)) {
        case 0: budget = 0; break;
        case 1: budget = 1; break;
        case 2: budget = static_cast<int64_t>(rng.Uniform(6)); break;
        case 3:
          budget = SldBudgetFromThreshold(0.05 + 0.3 * rng.NextDouble(), la,
                                          lb);
          break;
        default: budget = static_cast<int64_t>(la + lb); break;
      }
      const TokenAligning aligning = rng.Bernoulli(0.5)
                                         ? TokenAligning::kExact
                                         : TokenAligning::kGreedy;
      corpus.MaterializeInto(a, &scratch.x);
      corpus.MaterializeInto(b, &scratch.y);
      const BoundedSldResult byte_result =
          BoundedSld(scratch.x, scratch.y, budget, aligning);
      const BoundedSldResult id_plain =
          BoundedSld(corpus, corpus.tokens(a), corpus.tokens(b), budget,
                     aligning, /*scratch=*/nullptr, /*cache=*/nullptr);
      const BoundedSldResult id_cached =
          BoundedSld(corpus, corpus.tokens(a), corpus.tokens(b), budget,
                     aligning, /*scratch=*/nullptr, &cache);
      for (const BoundedSldResult* id_result : {&id_plain, &id_cached}) {
        ASSERT_EQ(id_result->within_budget, byte_result.within_budget)
            << "round=" << round << " trial=" << trial << " a=" << a
            << " b=" << b << " budget=" << budget
            << " exact=" << (aligning == TokenAligning::kExact)
            << " cached=" << (id_result == &id_cached);
        if (byte_result.within_budget) {
          ASSERT_EQ(id_result->sld, byte_result.sld)
              << "round=" << round << " trial=" << trial << " a=" << a
              << " b=" << b << " budget=" << budget
              << " exact=" << (aligning == TokenAligning::kExact)
              << " cached=" << (id_result == &id_cached);
        }
      }
      // Within budget, the id path must also agree with the unbounded
      // ground truth.
      if (byte_result.within_budget) {
        ASSERT_EQ(byte_result.sld, Sld(scratch.x, scratch.y, aligning));
      }
    }
  }
}

// ---- Streaming engine vs the brute-force NSLD oracle ---------------------

// (pair, NSLD) as an order-free set: the engine may emit results in any
// order but must produce the oracle's pairs with bit-identical NSLD.
using PairNsldSet = std::set<std::pair<std::pair<uint32_t, uint32_t>, double>>;

PairNsldSet ToPairNsldSet(const std::vector<TsjPair>& pairs) {
  PairNsldSet set;
  for (const TsjPair& p : pairs) set.insert({{p.a, p.b}, p.nsld});
  return set;
}

// A corpus with heavy token sharing plus a few empty strings, so the
// shared-token pass, the similar-token expansion, and the empty-string
// short-circuit all carry traffic.
Corpus RandomJoinCorpus(Rng* rng, size_t n) {
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    TokenizedString base =
        testutil::RandomTokenizedString(rng, 1, 4, 1, 7, 3);
    corpus.AddString(base);
    ++added;
    for (uint64_t c = rng->Uniform(3); c > 0 && added < n; --c, ++added) {
      TokenizedString variant = base;
      const size_t tok = rng->Uniform(variant.size());
      variant[tok] = testutil::RandomEdit(rng, variant[tok], 3);
      corpus.AddString(variant);
    }
    if (rng->Bernoulli(0.05) && added < n) {
      corpus.AddString({});
      ++added;
    }
  }
  return corpus;
}

// The lossless fuzzy matching must return exactly the oracle's (pair,
// NSLD) set; the exact-token-matching approximation may only miss pairs,
// so its result must be a subset of the oracle's with equal NSLD.
void ExpectMatchesOracle(const PairNsldSet& actual, const PairNsldSet& oracle,
                         TokenMatching matching, const std::string& context) {
  if (matching == TokenMatching::kFuzzy) {
    EXPECT_EQ(actual, oracle) << context;
  } else {
    EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(), actual.begin(),
                              actual.end()))
        << context;
  }
}

// Asserts that a run agrees with a reference run on the dedup/filter
// counters — the dedup is a sorted-run scan, so a grouping bug shows up
// as a counter drift even when the result set happens to survive.
void ExpectSameCounters(const TsjRunInfo& run, const TsjRunInfo& reference,
                        const std::string& context) {
  EXPECT_EQ(run.shared_token_candidates, reference.shared_token_candidates)
      << context;
  EXPECT_EQ(run.similar_token_pairs, reference.similar_token_pairs)
      << context;
  EXPECT_EQ(run.similar_token_candidates, reference.similar_token_candidates)
      << context;
  EXPECT_EQ(run.distinct_candidates, reference.distinct_candidates)
      << context;
  EXPECT_EQ(run.length_filtered, reference.length_filtered) << context;
  EXPECT_EQ(run.histogram_filtered, reference.histogram_filtered)
      << context;
  EXPECT_EQ(run.verified_candidates, reference.verified_candidates)
      << context;
  EXPECT_EQ(run.result_pairs, reference.result_pairs) << context;
}

// The counter reference of a configuration: one in-memory run at 1
// worker and 1 partition. Every worker, partition, spill and toggle
// setting must reproduce its counters.
TsjOptions SerialInMemory(TsjOptions options) {
  options.mapreduce.num_workers = 1;
  options.mapreduce.num_partitions = 1;
  options.adaptive_partitions = false;
  options.enable_shuffle_spill = false;
  return options;
}

TsjRunInfo SerialSelfJoinInfo(const Corpus& corpus,
                              const TsjOptions& options) {
  TsjRunInfo info;
  EXPECT_TRUE(TokenizedStringJoiner(SerialInMemory(options))
                  .SelfJoin(corpus, &info)
                  .ok());
  // The shared-token pass emits, per surviving token, the unordered pairs
  // of its strings whose Lemma 6 length bound is within T (every pair with
  // the length filter off); the pairs it skips are length_filtered.
  std::vector<std::vector<uint32_t>> strings_of(corpus.num_distinct_tokens());
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    const std::set<TokenId> distinct(corpus.tokens(s).begin(),
                                     corpus.tokens(s).end());
    for (const TokenId token : distinct) strings_of[token].push_back(s);
  }
  uint64_t all_pairs = 0;
  uint64_t admitted_pairs = 0;
  for (const std::vector<uint32_t>& strings : strings_of) {
    if (strings.size() > options.max_token_frequency) continue;
    for (size_t i = 0; i < strings.size(); ++i) {
      for (size_t j = i + 1; j < strings.size(); ++j) {
        ++all_pairs;
        if (!options.enable_length_filter ||
            NsldLowerBoundFromAggregateLengths(
                corpus.aggregate_length(strings[i]),
                corpus.aggregate_length(strings[j])) <= options.threshold) {
          ++admitted_pairs;
        }
      }
    }
  }
  EXPECT_EQ(info.shared_token_candidates, admitted_pairs);
  if (options.matching == TokenMatching::kExact) {
    EXPECT_EQ(info.shared_token_candidates + info.length_filtered, all_pairs);
  }
  return info;
}

TsjRunInfo SerialRpJoinInfo(const Corpus& r_corpus, const Corpus& p_corpus,
                            const TsjOptions& options) {
  TsjRunInfo info;
  EXPECT_TRUE(TokenizedStringJoiner(SerialInMemory(options))
                  .Join(r_corpus, p_corpus, &info)
                  .ok());
  return info;
}

TEST(DifferentialTest, StreamingSelfJoinMatchesLegacyEngine) {
  // The engine against the brute-force oracle for every worker/partition
  // combination, and against the serial run's counters (determinism
  // across the sweep).
  Rng rng(20260726);
  constexpr int kRounds = 6;
  const std::vector<size_t> worker_counts = {1, 4, 0};  // 0 = hardware
  const std::vector<size_t> partition_counts = {1, 7, 64};
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomJoinCorpus(&rng, 60);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      for (TokenMatching matching :
           {TokenMatching::kFuzzy, TokenMatching::kExact}) {
        TsjOptions options;
        options.threshold = t;
        options.max_token_frequency = 1u << 30;
        options.dedup = dedup;
        options.matching = matching;
        // The sweep below must control the partition count exactly, so
        // the adaptive planner is off; its losslessness has its own test.
        options.adaptive_partitions = false;
        const TsjRunInfo reference = SerialSelfJoinInfo(corpus, options);

        for (size_t workers : worker_counts) {
          for (size_t partitions : partition_counts) {
            TsjOptions sweep_options = options;
            sweep_options.mapreduce.num_workers = workers;
            sweep_options.mapreduce.num_partitions = partitions;
            TsjRunInfo info;
            const auto result =
                TokenizedStringJoiner(sweep_options).SelfJoin(corpus, &info);
            ASSERT_TRUE(result.ok());
            const std::string context =
                "round=" + std::to_string(round) + " t=" + std::to_string(t) +
                " dedup=" + std::to_string(static_cast<int>(dedup)) +
                " matching=" + std::to_string(static_cast<int>(matching)) +
                " workers=" + std::to_string(workers) +
                " partitions=" + std::to_string(partitions);
            ExpectMatchesOracle(ToPairNsldSet(*result), oracle, matching,
                                context);
            ExpectSameCounters(info, reference, context);
          }
        }
      }
    }
  }
}

TEST(DifferentialTest, StreamingRpJoinMatchesLegacyEngine) {
  Rng rng(31415926);
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    const Corpus r_corpus = RandomJoinCorpus(&rng, 45);
    const Corpus p_corpus = RandomJoinCorpus(&rng, 35);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options;
      options.threshold = t;
      options.max_token_frequency = 1u << 30;
      options.dedup = dedup;
      options.adaptive_partitions = false;  // the sweep sets the count
      const TsjRunInfo reference =
          SerialRpJoinInfo(r_corpus, p_corpus, options);

      for (size_t workers : {size_t{1}, size_t{4}}) {
        for (size_t partitions : {size_t{1}, size_t{7}, size_t{64}}) {
          TsjOptions sweep_options = options;
          sweep_options.mapreduce.num_workers = workers;
          sweep_options.mapreduce.num_partitions = partitions;
          TsjRunInfo info;
          const auto result = TokenizedStringJoiner(sweep_options)
                                  .Join(r_corpus, p_corpus, &info);
          ASSERT_TRUE(result.ok());
          const std::string context =
              "round=" + std::to_string(round) + " t=" + std::to_string(t) +
              " dedup=" + std::to_string(static_cast<int>(dedup)) +
              " workers=" + std::to_string(workers) +
              " partitions=" + std::to_string(partitions);
          EXPECT_EQ(ToPairNsldSet(*result), oracle) << context;
          ExpectSameCounters(info, reference, context);
        }
      }
    }
  }
}

TEST(DifferentialTest, L1TierCombinerAndAdaptivePartitionsAreLossless) {
  // The contention-relief tier: the per-worker L1 verify cache (deferred
  // batched shared upserts included), the sorted-shuffle combiner, and
  // the skew-adaptive partition planner must each change *nothing* about
  // the join's output or its candidate/filter counters — only traffic
  // and timing. The all-on default and each toggle run against the
  // oracle and the serial run's counters on the same corpora.
  Rng rng(17092026);
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomJoinCorpus(&rng, 80);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions all_on;  // combiner + L1 + adaptive: the defaults
      all_on.threshold = t;
      all_on.max_token_frequency = 1u << 30;
      all_on.dedup = dedup;
      all_on.mapreduce.num_workers = 4;
      const TsjRunInfo serial_info = SerialSelfJoinInfo(corpus, all_on);

      TsjRunInfo reference_info;
      const auto reference = TokenizedStringJoiner(all_on).SelfJoin(
          corpus, &reference_info);
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(ToPairNsldSet(*reference), oracle);
      ExpectSameCounters(reference_info, serial_info,
                         "all-on round=" + std::to_string(round));

      struct Toggle {
        const char* name;
        void (*apply)(TsjOptions*);
      };
      const Toggle toggles[] = {
          {"l1-off",
           [](TsjOptions* o) { o->enable_l1_verify_cache = false; }},
          {"combiner-off",
           [](TsjOptions* o) { o->enable_shuffle_combiner = false; }},
          {"adaptive-off",
           [](TsjOptions* o) { o->adaptive_partitions = false; }},
          {"all-off",
           [](TsjOptions* o) {
             o->enable_l1_verify_cache = false;
             o->enable_shuffle_combiner = false;
             o->adaptive_partitions = false;
           }},
      };
      for (const Toggle& toggle : toggles) {
        TsjOptions options = all_on;
        toggle.apply(&options);
        TsjRunInfo info;
        const auto result =
            TokenizedStringJoiner(options).SelfJoin(corpus, &info);
        ASSERT_TRUE(result.ok());
        const std::string context = std::string(toggle.name) +
                                    " round=" + std::to_string(round) +
                                    " dedup=" +
                                    std::to_string(static_cast<int>(dedup));
        EXPECT_EQ(ToPairNsldSet(*result), oracle) << context;
        ExpectSameCounters(info, serial_info, context);
      }

      // The default run exercised the machinery it claims to: L1 probes
      // happened (the tiny-token corpus may gate most edges below the
      // shared round-trip, but the L1 gate sits far lower), and the
      // combiner saw the candidate stream.
      EXPECT_GT(reference_info.combiner_input_records, 0u)
          << "round=" << round;
      EXPECT_GE(reference_info.combiner_input_records,
                reference_info.combiner_output_records);
    }
  }
}

TEST(DifferentialTest, SpillForcedStreamingMatchesInMemoryEngines) {
  // The spill tier's differential: with budgets far below the workload's
  // shuffle volume, every partition bucket spills (multi-file runs, runs
  // split mid-key, flush-combine + merge-combine) — and nothing about
  // the join may change. Budget 64 sits near the workload's size, so the
  // boundary "barely spills / barely doesn't" is swept too.
  Rng rng(50926072);
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomJoinCorpus(&rng, 36);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options;
      options.threshold = t;
      options.max_token_frequency = 1u << 30;
      options.dedup = dedup;
      options.adaptive_partitions = false;  // the sweep sets the count
      const TsjRunInfo reference = SerialSelfJoinInfo(corpus, options);

      for (const bool combiner_on : {true, false}) {
        for (const size_t workers : {size_t{1}, size_t{4}}) {
          for (const size_t partitions : {size_t{1}, size_t{7}}) {
            for (const size_t budget :
                 {size_t{1}, size_t{7}, size_t{64}}) {
              TsjOptions spill_options = options;
              spill_options.enable_shuffle_combiner = combiner_on;
              spill_options.enable_shuffle_spill = true;
              spill_options.mapreduce.memory_budget_records = budget;
              spill_options.mapreduce.num_workers = workers;
              spill_options.mapreduce.num_partitions = partitions;
              TsjRunInfo info;
              const auto spilled = TokenizedStringJoiner(spill_options)
                                       .SelfJoin(corpus, &info);
              ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
              const std::string context =
                  "round=" + std::to_string(round) +
                  " t=" + std::to_string(t) +
                  " dedup=" + std::to_string(static_cast<int>(dedup)) +
                  " combiner=" + std::to_string(combiner_on) +
                  " workers=" + std::to_string(workers) +
                  " partitions=" + std::to_string(partitions) +
                  " budget=" + std::to_string(budget);
              EXPECT_EQ(ToPairNsldSet(*spilled), oracle) << context;
              ExpectSameCounters(info, reference, context);
              if (budget <= 7) {
                // Tiny budgets must actually force multi-file spills —
                // otherwise this sweep silently stops testing anything.
                EXPECT_GT(info.spilled_records, 0u) << context;
                EXPECT_GT(info.spill_files, 1u) << context;
                EXPECT_GT(info.merge_passes, 0u) << context;
              }
            }
          }
        }
      }
    }
  }
}

TEST(DifferentialTest, SpillForcedRpJoinMatchesInMemoryEngines) {
  // Two-collection form of the spill differential (tagged-id keys flow
  // through the spill codec; one compact sweep).
  Rng rng(60926072);
  const Corpus r_corpus = RandomJoinCorpus(&rng, 30);
  const Corpus p_corpus = RandomJoinCorpus(&rng, 24);
  const double t = 0.15;
  const PairNsldSet oracle =
      ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t));
  for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                              DedupStrategy::kGroupOnBothStrings}) {
    TsjOptions options;
    options.threshold = t;
    options.max_token_frequency = 1u << 30;
    options.dedup = dedup;
    options.adaptive_partitions = false;
    const TsjRunInfo reference =
        SerialRpJoinInfo(r_corpus, p_corpus, options);

    for (const size_t budget : {size_t{1}, size_t{7}, size_t{64}}) {
      TsjOptions spill_options = options;
      spill_options.enable_shuffle_spill = true;
      spill_options.mapreduce.memory_budget_records = budget;
      spill_options.mapreduce.num_workers = 4;
      spill_options.mapreduce.num_partitions = 7;
      TsjRunInfo info;
      const auto spilled = TokenizedStringJoiner(spill_options)
                               .Join(r_corpus, p_corpus, &info);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      const std::string context =
          "dedup=" + std::to_string(static_cast<int>(dedup)) +
          " budget=" + std::to_string(budget);
      EXPECT_EQ(ToPairNsldSet(*spilled), oracle) << context;
      ExpectSameCounters(info, reference, context);
      if (budget <= 7) EXPECT_GT(info.spilled_records, 0u) << context;
    }
  }
}

TEST(DifferentialTest, FaultMatrixNeverCrashesHangsOrCorrupts) {
  // The fault-tolerance differential: every injection site x {once,
  // p=0.05} x workers {1, 4} x spill {on, off}, against the fault-free
  // reference. The contract per trial:
  //   * the join always completes (no crash, no hang, no terminate);
  //   * an OK result is byte-identical to the reference — a fault is
  //     never allowed to silently change the answer;
  //   * a non-OK result is only legal where the taxonomy says the fault
  //     class can be fatal: lossy merge reads, probability-mode faults
  //     (retry exhaustion / mid-merge write faults), never a solitary
  //     retryable 'once' fault or a degraded write fault.
  // The injector is process-global; the sweep restores the CC_FAULT_SPEC
  // environment configuration when it finishes (or fails).
  struct RestoreEnvSpec {
    ~RestoreEnvSpec() { FaultInjector::Global().ConfigureFromEnv(); }
  } restore;

  Rng rng(70926072);
  const Corpus corpus = RandomJoinCorpus(&rng, 40);
  const double t = 0.2;
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;
  options.adaptive_partitions = false;
  options.mapreduce.num_partitions = 7;

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  const auto reference = TokenizedStringJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(reference.ok());
  const PairNsldSet expected = ToPairNsldSet(*reference);

  const std::vector<std::string> sites = {"task.map",   "task.reduce",
                                          "alloc.shuffle", "spill.open",
                                          "spill.write", "merge.read"};
  for (const std::string& site : sites) {
    for (const std::string& mode : {std::string("once"),
                                    std::string("p0.05@seed1")}) {
      for (const size_t workers : {size_t{1}, size_t{4}}) {
        for (const bool spill : {false, true}) {
          ASSERT_TRUE(
              FaultInjector::Global().Configure(site + "=" + mode).ok());
          TsjOptions trial = options;
          trial.mapreduce.num_workers = workers;
          trial.enable_shuffle_spill = spill;
          trial.mapreduce.memory_budget_records = spill ? 4 : 0;
          TsjRunInfo info;
          const auto result =
              TokenizedStringJoiner(trial).SelfJoin(corpus, &info);
          const std::string context = "site=" + site + " mode=" + mode +
                                      " workers=" + std::to_string(workers) +
                                      " spill=" + std::to_string(spill);
          const bool spill_site = site.rfind("spill.", 0) == 0 ||
                                  site.rfind("merge.", 0) == 0;
          if (spill_site && !spill) {
            // The site is never evaluated: the run must be fault-free.
            EXPECT_EQ(FaultInjector::Global().fired(site), 0u) << context;
            ASSERT_TRUE(result.ok()) << context;
            EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
          } else if (mode == "once" && site == "merge.read" && spill) {
            // Exactly one torn run read: lossy, must fail the join with a
            // clean root-cause Status — a silently incomplete result set
            // would be the disaster case.
            ASSERT_FALSE(result.ok()) << context;
            EXPECT_FALSE(result.status().message().empty()) << context;
            EXPECT_EQ(FaultInjector::Global().fired(site), 1u) << context;
          } else if (mode == "once") {
            // A solitary retryable fault (task start, shuffle alloc) or a
            // degraded first spill write/open: always absorbed, results
            // byte-identical, and the absorption visible in the counters.
            ASSERT_TRUE(result.ok())
                << context << ": " << result.status().ToString();
            EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
            const uint64_t fired = FaultInjector::Global().fired(site);
            if (site == "alloc.shuffle" && spill) {
              // The spilling engines have no shuffle-concat phase (runs
              // merge inside the reduce), so the site may legitimately
              // never be evaluated here.
              EXPECT_LE(fired, 1u) << context;
            } else {
              EXPECT_EQ(fired, 1u) << context;
            }
            if (fired == 1 && (site.rfind("task.", 0) == 0 ||
                               site.rfind("alloc.", 0) == 0)) {
              EXPECT_GE(info.task_retries, 1u) << context;
              EXPECT_GE(info.task_failures, 1u) << context;
            }
          } else {
            // Probability mode: dozens of independent strikes. Either the
            // retry/degrade layers absorbed all of them (identical
            // results) or the job aborted / lost a run — with a clean
            // Status either way.
            if (result.ok()) {
              EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
            } else {
              EXPECT_FALSE(result.status().message().empty()) << context;
            }
          }
        }
      }
    }
  }
}

TEST(DifferentialTest, CheckpointRestartOn10kRingIsByteIdentical) {
  // The checkpoint/restart differential at acceptance scale: a fatal
  // reduce fault aborts a checkpointing run over the 10k-account ring
  // workload, and the restart over the same directory must skip at least
  // one checkpointed map task while reproducing the byte-identical
  // fault-free (pair, NSLD) set. The injector is process-global; restore
  // the env configuration on every exit path.
  struct RestoreEnvSpec {
    ~RestoreEnvSpec() { FaultInjector::Global().ConfigureFromEnv(); }
  } restore;

  RingWorkloadOptions wopts;
  wopts.num_accounts = 10000;
  const RingWorkload workload = GenerateRingWorkload(wopts);

  TsjOptions options;  // the paper's evaluation defaults (T=0.1, M=1000)
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt-10k-ring")
          .string();
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  const auto reference =
      TokenizedStringJoiner(options).SelfJoin(workload.corpus);
  ASSERT_TRUE(reference.ok());
  const PairNsldSet expected = ToPairNsldSet(*reference);

  TsjOptions ckpt = options;
  ckpt.enable_checkpointing = true;
  ckpt.mapreduce.checkpoint_dir = dir;
  ckpt.mapreduce.max_task_retries = 0;

  ASSERT_TRUE(
      FaultInjector::Global().Configure("task.reduce=once").ok());
  TsjRunInfo aborted_info;
  const auto aborted =
      TokenizedStringJoiner(ckpt).SelfJoin(workload.corpus, &aborted_info);
  EXPECT_FALSE(aborted.ok());
  EXPECT_GE(aborted_info.tasks_checkpointed, 1u);

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  TsjRunInfo restarted_info;
  const auto restarted =
      TokenizedStringJoiner(ckpt).SelfJoin(workload.corpus,
                                           &restarted_info);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(ToPairNsldSet(*restarted), expected);
  EXPECT_GE(restarted_info.tasks_skipped_by_checkpoint, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tsj
