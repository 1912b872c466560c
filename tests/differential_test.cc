// Randomized differential harness for the verification kernels (the
// "slow" ctest label; CI runs it as its own job).
//
// A wrong bit-vector or memo entry in the fast paths silently flips join
// decisions, so every fast kernel is pitted against the slowest, most
// obviously correct reference on tens of thousands of seeded random
// inputs:
//
//   * Myers bit-parallel LD (single-word and blocked), clamped at every
//     cap family (0, 1, small, huge), == naive full-matrix DP, and so is
//     the reference DP Levenshtein(), for every input family (ASCII, raw
//     bytes, UTF-8-ish sequences, long common affixes, all-equal, empty);
//   * BoundedSld on interned token-id spans (exact and greedy aligning)
//     == the byte-level Sld() on the materialized multisets, on random
//     corpora (some with tokens longer than 64 characters) and budgets;
//   * the fused TSJ pipeline == the brute-force NSLD oracle (exact
//     Hungarian, no filters: BruteForceNsldSelfJoin,
//     testutil::BruteForceRP) on the sorted (pair, NSLD) set — a subset
//     of it for exact-token matching — and == one serial in-memory run
//     (1 worker, 1 partition) on the candidate, filter and verify-work
//     counters, across dedup strategies, matchings, worker and partition
//     counts, for both SelfJoin and the two-collection Join, on corpora
//     where some strings carry tokens longer than 64 characters. The
//     serial runs' shared-token, length-window and bag-filter counts, for
//     both join forms, are checked against a brute-force count of the
//     same predicates over one representative per distinct token
//     sequence;
//   * a finite high-frequency cutoff M, with one token at exactly M
//     strings and another at M + 1, == the oracle's pairs that still
//     share a surviving token (or, fuzzy, a surviving similar token pair);
//   * the spill-forced pipeline (enable_shuffle_spill with
//     memory_budget_records tiny enough to force multi-file disk spills,
//     budgets {1, 7, 64} x workers x partitions) == the oracle and the
//     serial in-memory counters — spill correctness is dominated by rare
//     boundary conditions (runs split across files, and MassJoin's
//     duplicate candidate pairs split across flushes and merged back into
//     one run), exactly what this sweep hammers.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "distance/levenshtein.h"
#include "distance/myers.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "hmj/hmj.h"
#include "mapreduce/spill.h"
#include "test_util.h"
#include "tokenized/bounds.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
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

TEST(DifferentialTest, MyersAgreesWithNaiveDp) {
  Rng rng(20260726);
  constexpr int kPairs = 12000;
  for (int trial = 0; trial < kPairs; ++trial) {
    const auto [x, y] = RandomPair(&rng);
    const uint32_t naive = NaiveLd(x, y);
    ASSERT_EQ(Levenshtein(x, y), naive)
        << "trial=" << trial << " |x|=" << x.size() << " |y|=" << y.size();
    for (const uint32_t cap : CapFamilies(&rng)) {
      // The clamp contract: exact when <= cap, else exactly cap+1. The
      // huge cap never binds, so there the kernel is the exact LD.
      ASSERT_EQ(MyersBoundedLevenshtein(x, y, cap), std::min(naive, cap + 1))
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
      ASSERT_EQ(MyersBoundedLevenshtein(x, y, static_cast<uint32_t>(
                                                  std::max(len, y.size()))),
                naive)
          << "len=" << len;
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
      const int64_t exact =
          Sld(corpus.Materialize(a), corpus.Materialize(b), aligning);
      const BoundedSldResult id_result = BoundedSld(
          corpus, corpus.tokens(a), corpus.tokens(b), budget, aligning);
      ASSERT_EQ(id_result.within_budget, exact <= budget)
          << "round=" << round << " trial=" << trial << " a=" << a
          << " b=" << b << " budget=" << budget
          << " exact=" << (aligning == TokenAligning::kExact);
      if (id_result.within_budget) {
        ASSERT_EQ(id_result.sld, exact)
            << "round=" << round << " trial=" << trial << " a=" << a
            << " b=" << b << " budget=" << budget
            << " exact=" << (aligning == TokenAligning::kExact);
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
// short-circuit all carry traffic. With `long_tokens`, as in RandomCorpus,
// about one base string in four also carries a 40-150-character token
// over the 3-letter alphabet, half the time an edit of the corpus's
// shared long base: its repeated bytes cross the 64-char Myers word, and
// pairs of such strings join, so the bag filter and the blocked edge
// kernel both meet them at join level. The spill-forced and fault sweeps
// draw without them: a long token gives MassJoin about 40x the signature
// records, and at their one-record spill budgets each becomes a spill
// file, which takes minutes without testing anything new about spilling.
Corpus RandomJoinCorpus(Rng* rng, size_t n, bool long_tokens) {
  const std::string long_base =
      long_tokens ? testutil::RandomString(rng, 40, 150, 3) : "";
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    TokenizedString base =
        testutil::RandomTokenizedString(rng, 1, 4, 1, 7, 3);
    if (long_tokens && rng->Uniform(4) == 0) {
      std::string long_token = rng->Bernoulli(0.5)
                                   ? long_base
                                   : testutil::RandomString(rng, 40, 150, 3);
      for (uint64_t e = rng->Uniform(5); e > 0; --e) {
        long_token = testutil::RandomEdit(rng, long_token, 3);
      }
      base.insert(base.begin() + rng->Uniform(base.size() + 1),
                  std::move(long_token));
    }
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

// Asserts that a run agrees with a reference run on the dedup, filter and
// verify-work counters — the dedup is a sorted-run scan, so a grouping bug
// shows up as a counter drift even when the result set happens to
// survive. Each verified pair's work units depend only on the pair, so
// their sum repeats at every worker and partition count.
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
  EXPECT_EQ(run.bag_filtered, reference.bag_filtered) << context;
  EXPECT_EQ(run.histogram_filtered, reference.histogram_filtered)
      << context;
  EXPECT_EQ(run.verified_candidates, reference.verified_candidates)
      << context;
  EXPECT_EQ(run.verify_work_units, reference.verify_work_units) << context;
  EXPECT_EQ(run.result_pairs, reference.result_pairs) << context;
}

// The counter reference of a configuration: one in-memory run at 1
// worker and 1 partition. Every worker, partition, spill and toggle
// setting must reproduce its counters.
TsjOptions SerialInMemory(TsjOptions options) {
  options.mapreduce.num_workers = 1;
  options.mapreduce.num_partitions = 1;
  options.enable_shuffle_spill = false;
  return options;
}

// Brute-force tallies of the pairs a shared-token pass considers. The
// length window admits those whose Lemma 6 bound is within T; the pairs it
// skips are length_filtered. Of the admitted pairs the pass emits those
// whose bag bound, NsldFromSld(SldLowerBoundFromCharBags), is within T
// too; the rest are bag_filtered.
struct SharedPairTally {
  uint64_t all_pairs = 0;
  uint64_t admitted_pairs = 0;
  uint64_t bag_skipped_pairs = 0;

  void Add(const TsjOptions& options, size_t la, const CharBag& bag_a,
           size_t lb, const CharBag& bag_b) {
    ++all_pairs;
    if (NsldLowerBoundFromAggregateLengths(la, lb) > options.threshold) {
      return;
    }
    ++admitted_pairs;
    const int64_t bag_bound = SldLowerBoundFromCharBags(bag_a, bag_b, la, lb);
    if (NsldFromSld(bag_bound, la, lb) > options.threshold) {
      ++bag_skipped_pairs;
    }
  }

  void ExpectCounters(const TsjRunInfo& info,
                      const TsjOptions& options) const {
    EXPECT_EQ(info.shared_token_candidates,
              admitted_pairs - bag_skipped_pairs);
    // Only the shared-token pass runs under exact-token matching, so the
    // pre-dedup filter counters are its alone.
    if (options.matching == TokenMatching::kExact) {
      EXPECT_EQ(info.shared_token_candidates + info.bag_filtered,
                admitted_pairs);
      EXPECT_EQ(info.bag_filtered, bag_skipped_pairs);
      EXPECT_EQ(info.shared_token_candidates + info.bag_filtered +
                    info.length_filtered,
                all_pairs);
    }
  }
};

// TSJ generates and verifies only the first string of each distinct
// token-id sequence (tsj/tsj.h), so the pass's counters tally these.
bool IsRepresentative(const Corpus& corpus, uint32_t s) {
  for (uint32_t earlier = 0; earlier < s; ++earlier) {
    if (std::ranges::equal(corpus.tokens(earlier), corpus.tokens(s))) {
      return false;
    }
  }
  return true;
}

TsjRunInfo SerialSelfJoinInfo(const Corpus& corpus,
                              const TsjOptions& options) {
  TsjRunInfo info;
  EXPECT_TRUE(TokenizedStringJoiner(SerialInMemory(options))
                  .SelfJoin(corpus, &info)
                  .ok());
  // The self-join's shared-token pass considers, per surviving token (one
  // in at most M strings, copies included), the unordered pairs of the
  // representatives that hold it.
  std::vector<size_t> frequency(corpus.num_distinct_tokens(), 0);
  std::vector<std::vector<uint32_t>> strings_of(corpus.num_distinct_tokens());
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    const std::set<TokenId> distinct(corpus.tokens(s).begin(),
                                     corpus.tokens(s).end());
    const bool representative = IsRepresentative(corpus, s);
    for (const TokenId token : distinct) {
      ++frequency[token];
      if (representative) strings_of[token].push_back(s);
    }
  }
  SharedPairTally tally;
  for (TokenId token = 0; token < strings_of.size(); ++token) {
    if (frequency[token] > options.max_token_frequency) continue;
    const std::vector<uint32_t>& strings = strings_of[token];
    for (size_t i = 0; i < strings.size(); ++i) {
      for (size_t j = i + 1; j < strings.size(); ++j) {
        tally.Add(options, corpus.aggregate_length(strings[i]),
                  corpus.char_bag(strings[i]),
                  corpus.aggregate_length(strings[j]),
                  corpus.char_bag(strings[j]));
      }
    }
  }
  tally.ExpectCounters(info, options);
  return info;
}

TsjRunInfo SerialRpJoinInfo(const Corpus& r_corpus, const Corpus& p_corpus,
                            const TsjOptions& options) {
  TsjRunInfo info;
  EXPECT_TRUE(TokenizedStringJoiner(SerialInMemory(options))
                  .Join(r_corpus, p_corpus, &info)
                  .ok());
  // The R x P shared-token pass considers, per surviving token text (one
  // in at most M strings of R and P together, copies included), the pairs
  // of the R representatives that hold it with the P representatives that
  // hold it. Copy classes lie within one side, so each corpus has its own
  // representatives. Token ids are corpus-relative, so the strings of a
  // token are gathered by its text.
  std::map<std::string, size_t> frequency;
  std::map<std::string, std::vector<uint32_t>> r_strings_of;
  std::map<std::string, std::vector<uint32_t>> p_strings_of;
  auto gather = [&frequency](
                    const Corpus& corpus,
                    std::map<std::string, std::vector<uint32_t>>* strings_of) {
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      const std::set<TokenId> distinct(corpus.tokens(s).begin(),
                                       corpus.tokens(s).end());
      const bool representative = IsRepresentative(corpus, s);
      for (const TokenId token : distinct) {
        ++frequency[corpus.token_text(token)];
        if (representative) {
          (*strings_of)[corpus.token_text(token)].push_back(s);
        }
      }
    }
  };
  gather(r_corpus, &r_strings_of);
  gather(p_corpus, &p_strings_of);
  SharedPairTally tally;
  for (const auto& [text, rs] : r_strings_of) {
    const auto it = p_strings_of.find(text);
    if (it == p_strings_of.end()) continue;
    const std::vector<uint32_t>& ps = it->second;
    if (frequency[text] > options.max_token_frequency) continue;
    for (const uint32_t r : rs) {
      for (const uint32_t p : ps) {
        tally.Add(options, r_corpus.aggregate_length(r), r_corpus.char_bag(r),
                  p_corpus.aggregate_length(p), p_corpus.char_bag(p));
      }
    }
  }
  tally.ExpectCounters(info, options);
  return info;
}

TEST(DifferentialTest, StreamingSelfJoinMatchesBruteForce) {
  // The engine against the brute-force oracle for every worker/partition
  // combination, and against the serial run's counters (determinism
  // across the sweep).
  Rng rng(20260726);
  constexpr int kRounds = 6;
  // Two more rounds pin the ends of the threshold range: T = 0, where
  // only strings of equal token multisets join, and T = 0.99, where
  // Lemma 9 lets a token pair with one about 100 times its length. They
  // draw short tokens: at T = 0.99 a 150-char token alone gives MassJoin
  // millions of substring-role signatures.
  constexpr double kEndThresholds[] = {0.0, 0.99};
  const std::vector<size_t> worker_counts = {1, 4, 0};  // 0 = hardware
  const std::vector<size_t> partition_counts = {1, 7, 64};
  for (int round = 0; round < kRounds + 2; ++round) {
    const Corpus corpus =
        RandomJoinCorpus(&rng, 60, /*long_tokens=*/round < kRounds);
    const double drawn = 0.08 + 0.3 * rng.NextDouble();
    const double t =
        round < kRounds ? drawn : kEndThresholds[round - kRounds];
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

TEST(DifferentialTest, StreamingRpJoinMatchesBruteForce) {
  Rng rng(31415926);
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    const Corpus r_corpus = RandomJoinCorpus(&rng, 45, /*long_tokens=*/true);
    const Corpus p_corpus = RandomJoinCorpus(&rng, 35, /*long_tokens=*/true);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      for (TokenMatching matching :
           {TokenMatching::kFuzzy, TokenMatching::kExact}) {
        TsjOptions options;
        options.threshold = t;
        options.max_token_frequency = 1u << 30;
        options.dedup = dedup;
        options.matching = matching;
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

TEST(DifferentialTest, FiniteTokenFrequencyCutoffMatchesOracle) {
  // The other join-level differentials set M = 1 << 30, so no token ever
  // meets the cutoff. Here each round picks M so that one token sits in
  // exactly M strings (it survives) and another in M + 1 (it is dropped).
  // A brute-force pair is then expected iff it meets the cutoff's rule
  // (testutil::JoinableUnderCutoff): a surviving token of a and a
  // surviving token of b are equal (either matching) or, under fuzzy
  // matching, within NLD T of each other; or one string has no tokens and
  // the other has no tokens or only empty ones (TSJ emits those directly,
  // whatever M).
  Rng rng(81726354);
  constexpr int kRounds = 12;
  uint64_t cut_pairs[2] = {0, 0};  // pairs the cutoff removed, per matching
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomJoinCorpus(&rng, 70, /*long_tokens=*/true);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const std::vector<uint32_t> frequency =
        corpus.ComputeTokenStringFrequencies();
    const std::set<uint32_t> frequencies(frequency.begin(), frequency.end());
    std::vector<uint32_t> cutoffs;
    for (const uint32_t f : frequencies) {
      if (frequencies.count(f + 1) > 0) cutoffs.push_back(f);
    }
    ASSERT_FALSE(cutoffs.empty()) << "round=" << round;
    const uint32_t m = cutoffs[rng.Uniform(cutoffs.size())];

    // Whether a and b meet the rule above when only the tokens `survives`
    // accepts take part.
    auto joinable = [&](uint32_t a, uint32_t b, TokenMatching matching,
                        const auto& survives) {
      return testutil::JoinableUnderCutoff(
          corpus.Materialize(a), corpus.Materialize(b), matching, t, survives);
    };
    std::map<std::string, uint32_t> frequency_of;
    for (TokenId token = 0; token < corpus.num_distinct_tokens(); ++token) {
      frequency_of[corpus.token_text(token)] = frequency[token];
    }
    const auto below_cutoff = [&](const std::string& text) {
      return frequency_of.at(text) <= m;
    };
    const auto every_token = [](const std::string&) { return true; };
    const std::vector<TsjPair> oracle = BruteForceNsldSelfJoin(corpus, t);

    for (TokenMatching matching :
         {TokenMatching::kFuzzy, TokenMatching::kExact}) {
      PairNsldSet expected;
      for (const TsjPair& p : oracle) {
        if (joinable(p.a, p.b, matching, below_cutoff)) {
          expected.insert({{p.a, p.b}, p.nsld});
        } else if (joinable(p.a, p.b, matching, every_token)) {
          ++cut_pairs[static_cast<int>(matching)];
        }
      }
      for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                  DedupStrategy::kGroupOnBothStrings}) {
        for (const size_t workers : {size_t{1}, size_t{4}}) {
          TsjOptions options;
          options.threshold = t;
          options.max_token_frequency = m;
          options.matching = matching;
          options.dedup = dedup;
          options.mapreduce.num_workers = workers;
          const auto result = TokenizedStringJoiner(options).SelfJoin(corpus);
          ASSERT_TRUE(result.ok());
          EXPECT_EQ(ToPairNsldSet(*result), expected)
              << "round=" << round << " t=" << t << " M=" << m
              << " matching=" << static_cast<int>(matching)
              << " dedup=" << static_cast<int>(dedup)
              << " workers=" << workers;
        }
      }
    }
  }
  // The cutoff must actually remove pairs, or the sweep checks nothing
  // the M = 1 << 30 differentials do not.
  EXPECT_GT(cut_pairs[static_cast<int>(TokenMatching::kFuzzy)], 0u);
  EXPECT_GT(cut_pairs[static_cast<int>(TokenMatching::kExact)], 0u);
}

TEST(DifferentialTest, SpillForcedStreamingMatchesInMemoryEngines) {
  // The spill tier's differential: with budgets far below the workload's
  // shuffle volume, every partition bucket spills (multi-file runs, and
  // runs split mid-key, MassJoin's duplicate candidate pairs among them)
  // — and nothing about the join may change. Budget 64
  // sits near the workload's size, so the boundary "barely spills /
  // barely doesn't" is swept too.
  Rng rng(50926072);
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    const Corpus corpus = RandomJoinCorpus(&rng, 36, /*long_tokens=*/false);
    const double t = 0.08 + 0.3 * rng.NextDouble();
    const PairNsldSet oracle =
        ToPairNsldSet(BruteForceNsldSelfJoin(corpus, t));
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      TsjOptions options;
      options.threshold = t;
      options.max_token_frequency = 1u << 30;
      options.dedup = dedup;
      const TsjRunInfo reference = SerialSelfJoinInfo(corpus, options);

      for (const size_t workers : {size_t{1}, size_t{4}}) {
        for (const size_t partitions : {size_t{1}, size_t{7}}) {
          for (const size_t budget : {size_t{1}, size_t{7}, size_t{64}}) {
            TsjOptions spill_options = options;
            spill_options.enable_shuffle_spill = true;
            spill_options.mapreduce.memory_budget_records = budget;
            spill_options.mapreduce.num_workers = workers;
            spill_options.mapreduce.num_partitions = partitions;
            TsjRunInfo info;
            const auto spilled =
                TokenizedStringJoiner(spill_options).SelfJoin(corpus, &info);
            ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
            const std::string context =
                "round=" + std::to_string(round) +
                " t=" + std::to_string(t) +
                " dedup=" + std::to_string(static_cast<int>(dedup)) +
                " workers=" + std::to_string(workers) +
                " partitions=" + std::to_string(partitions) +
                " budget=" + std::to_string(budget);
            EXPECT_EQ(ToPairNsldSet(*spilled), oracle) << context;
            ExpectSameCounters(info, reference, context);
            if (budget <= 7) {
              // Tiny budgets must actually force multi-file spills —
              // otherwise this sweep silently stops testing anything.
              EXPECT_GT(info.pipeline.total_spilled_records(), 0u) << context;
              EXPECT_GT(info.pipeline.total_spill_files(), 1u) << context;
              EXPECT_GT(info.pipeline.total_merge_passes(), 0u) << context;
            }
          }
        }
      }
    }
  }
}

TEST(DifferentialTest, SpillForcedRpJoinMatchesInMemoryEngines) {
  // Two-collection form of the spill differential: the R x P run's cross
  // candidates flow through the spill codec (one compact sweep).
  Rng rng(60926072);
  const Corpus r_corpus = RandomJoinCorpus(&rng, 30, /*long_tokens=*/false);
  const Corpus p_corpus = RandomJoinCorpus(&rng, 24, /*long_tokens=*/false);
  const double t = 0.15;
  const PairNsldSet oracle =
      ToPairNsldSet(testutil::BruteForceRP(r_corpus, p_corpus, t));
  for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                              DedupStrategy::kGroupOnBothStrings}) {
    TsjOptions options;
    options.threshold = t;
    options.max_token_frequency = 1u << 30;
    options.dedup = dedup;
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
      if (budget <= 7) {
        EXPECT_GT(info.pipeline.total_spilled_records(), 0u) << context;
      }
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
  testutil::RestoreFaultSpecFromEnv restore;

  Rng rng(70926072);
  const Corpus corpus = RandomJoinCorpus(&rng, 40, /*long_tokens=*/false);
  const double t = 0.2;
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;
  options.mapreduce.num_partitions = 7;

  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  const auto reference = TokenizedStringJoiner(options).SelfJoin(corpus);
  ASSERT_TRUE(reference.ok());
  const PairNsldSet expected = ToPairNsldSet(*reference);

  for (const std::string_view site_name : kFaultSites) {
    const std::string site(site_name);
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
          // Under the CC_SHUFFLE_SPILL_BUDGET override every job spills,
          // the spill=0 cells too, so they take the spilling contract.
          const bool spills = spill || SpillBudgetFromEnv() > 0;
          if (spill_site && !spills) {
            // The site is never evaluated: the run must be fault-free.
            EXPECT_EQ(FaultInjector::Global().fired(site), 0u) << context;
            ASSERT_TRUE(result.ok()) << context;
            EXPECT_EQ(ToPairNsldSet(*result), expected) << context;
          } else if (mode == "once" && site == "merge.read" && spills) {
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
            if (site == "alloc.shuffle" && spills) {
              // The spilling engines have no shuffle-concat phase (runs
              // merge inside the reduce), so the site may legitimately
              // never be evaluated here.
              EXPECT_LE(fired, 1u) << context;
            } else {
              EXPECT_EQ(fired, 1u) << context;
            }
            if (fired == 1 && (site.rfind("task.", 0) == 0 ||
                               site.rfind("alloc.", 0) == 0)) {
              EXPECT_GE(info.pipeline.total_task_retries(), 1u) << context;
              EXPECT_GE(info.pipeline.total_task_failures(), 1u) << context;
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

}  // namespace
}  // namespace tsj
