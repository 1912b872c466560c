#include "tsj/tsj.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mapreduce/cluster_model.h"
#include "mapreduce/work_units.h"
#include "massjoin/mass_join.h"
#include "tokenized/bounds.h"
#include "tokenized/sld.h"

namespace tsj {

namespace {

// A similar-token pair from the MassJoin pass, still to be expanded
// against the token postings: the dedup/verify stage's side input.
// (Shared-token candidate pairs are never materialized; they stream
// straight from the generating reduce into the dedup shuffle.)
struct SimilarTokenPair {
  uint32_t a = 0;
  uint32_t b = 0;
};

// Key choice of the grouping-on-one-string strategy (Sec. III-G.3): for a
// pair (tau, upsilon), tau becomes the key iff
//   int(HASH(tau) < HASH(upsilon)) == (HASH(tau) + HASH(upsilon)) % 2,
// which splits key duty evenly regardless of id distribution.
inline uint32_t PickGroupKey(uint32_t a, uint32_t b) {
  const uint64_t ha = Mix64(a);
  const uint64_t hb = Mix64(b);
  const uint64_t lt = (ha < hb) ? 1u : 0u;
  return (lt == ((ha + hb) & 1u)) ? a : b;
}

// The verify thread's workspace, shared by FilterAndVerify and the
// reduce-group boundaries that flush its L1 cache tier: the deferred
// shared-shard upserts and the locally counted L1 statistics must drain
// once per group (tokenized/sld.h, two-tier probe contract), so the
// scratch cannot stay private to FilterAndVerify.
SldVerifyScratch& VerifyScratch() {
  thread_local SldVerifyScratch scratch;
  return scratch;
}

// Reduce-group boundary: publishes the thread's L1 hit/miss counts and —
// once enough deferred upserts accumulated — drains them into the shared
// tier in one shard-grouped batch (tiny groups batch across groups).
// Harmless when the cache or the L1 tier is disabled.
void FlushVerifyCache(TokenPairCache* cache) {
  if (cache != nullptr) VerifyScratch().l1.FlushIfBatchReady(cache);
}

// Thread-safe counters shared by the pipeline lambdas.
struct Counters {
  std::atomic<uint64_t> shared_token_candidates{0};
  std::atomic<uint64_t> similar_token_candidates{0};
  std::atomic<uint64_t> distinct_candidates{0};
  std::atomic<uint64_t> length_filtered{0};
  std::atomic<uint64_t> bag_filtered{0};
  std::atomic<uint64_t> histogram_filtered{0};
  std::atomic<uint64_t> verified_candidates{0};
  std::atomic<uint64_t> verify_work_units{0};
};

// Histogram filter + verify one distinct candidate pair, with `a` resolved
// against `corpus_a` and `b` against `corpus_b` (the same corpus twice for
// self-joins); appends to `out` when the pair joins. Lossless filters only
// (Sec. III-E); the length and bag filters already ran where the pair
// was generated (LengthWindow, BagFilter). `cache` (may be null) is the
// run's corpus-wide token-pair cache, only consulted on the token-id path.
void FilterAndVerify(const Corpus& corpus_a, const Corpus& corpus_b,
                     const TsjOptions& options, Counters* counters,
                     TokenPairCache* cache, uint32_t a, uint32_t b,
                     std::vector<TsjPair>* out) {
  const double t = options.threshold;
  const size_t la = corpus_a.aggregate_length(a);
  const size_t lb = corpus_b.aggregate_length(b);
  if (options.enable_histogram_filter &&
      NsldLowerBoundFromHistograms(corpus_a.length_histogram(a),
                                   corpus_b.length_histogram(b)) > t) {
    counters->histogram_filtered.fetch_add(1, std::memory_order_relaxed);
    AddWorkUnits(corpus_a.tokens(a).size() + corpus_b.tokens(b).size() + 1);
    return;
  }
  counters->verified_candidates.fetch_add(1, std::memory_order_relaxed);
  // Final verification (Sec. III-F) through the budget-aware SLD engine —
  // the NSLD threshold converts to an integer SLD budget (tokenized/sld.h),
  // and the bounded path only ever skips work, never changes the decision
  // or the reported NSLD.
  SldVerifyScratch& scratch = VerifyScratch();
  scratch.use_l1_cache = options.enable_l1_verify_cache;
  if (options.enable_budgeted_verify) {
    const int64_t budget = SldBudgetFromThreshold(t, la, lb);
    BoundedSldResult verdict;
    if (options.enable_token_id_verify && &corpus_a == &corpus_b) {
      // Token-id verification: both sides live in one interned id space,
      // so the engine reads token texts in place — no materialization —
      // and the corpus-wide cache can short-circuit repeated edges.
      verdict = BoundedSld(corpus_a, corpus_a.tokens(a), corpus_b.tokens(b),
                           budget, options.aligning, &scratch, cache);
    } else {
      corpus_a.MaterializeInto(a, &scratch.x);
      corpus_b.MaterializeInto(b, &scratch.y);
      verdict =
          BoundedSld(scratch.x, scratch.y, budget, options.aligning, &scratch);
    }
    AddWorkUnits(verdict.work_units);
    counters->verify_work_units.fetch_add(verdict.work_units,
                                          std::memory_order_relaxed);
    if (verdict.within_budget) {
      out->push_back(TsjPair{a, b, NsldFromSld(verdict.sld, la, lb)});
    }
    return;
  }
  corpus_a.MaterializeInto(a, &scratch.x);
  corpus_b.MaterializeInto(b, &scratch.y);
  const uint64_t work = SldWorkUnits(la, lb, scratch.x.size(),
                                     scratch.y.size(), options.aligning);
  AddWorkUnits(work);
  counters->verify_work_units.fetch_add(work, std::memory_order_relaxed);
  const int64_t sld = Sld(scratch.x, scratch.y, options.aligning);
  const double nsld = NsldFromSld(sld, la, lb);
  if (nsld <= t) {
    out->push_back(TsjPair{a, b, nsld});
  }
}

// The run's token-pair cache: the caller-shared one when provided (warm
// starts across runs), otherwise `local`; null when the id path or the
// cache is disabled, which turns every lookup off.
TokenPairCache* SelectPairCache(const TsjOptions& options,
                                TokenPairCache* local) {
  if (!options.enable_budgeted_verify || !options.enable_token_id_verify ||
      !options.enable_token_pair_cache) {
    return nullptr;
  }
  return options.shared_token_pair_cache != nullptr
             ? options.shared_token_pair_cache
             : local;
}

// Sorts string ids by (aggregate length, id), the order the length window
// walks. It also batches verification: one reduce group verifies its
// candidates in this order, so consecutive bigraphs have similar
// dimensions and the verify scratch, DP rows and cache lines stay
// resident instead of being resized around by a random length sequence.
template <typename LengthOf>
void SortByAggregateLength(std::span<uint32_t> ids,
                           const LengthOf& length_of) {
  std::sort(ids.begin(), ids.end(), [&](uint32_t p, uint32_t q) {
    const size_t lp = length_of(p);
    const size_t lq = length_of(q);
    if (lp != lq) return lp < lq;
    return p < q;
  });
}

// The Lemma 6 length filter (Sec. III-E.1), applied where candidate pairs
// are generated: a pair can join only if
// NsldLowerBoundFromAggregateLengths(la, lb) <= T. The bound is monotone
// in the longer length (and in the shorter one), so over strings sorted by
// aggregate length the partners one string admits form one contiguous
// range; the generators below walk only that range. Disabled, it admits
// every pair.
struct LengthWindow {
  bool enabled = true;
  double threshold = 0.0;

  bool Admits(size_t la, size_t lb) const {
    return !enabled || NsldLowerBoundFromAggregateLengths(la, lb) <= threshold;
  }
};

// The bag filter (tokenized/bounds.h), applied by every generator to each
// pair the length window admits, before the pair is emitted: a pair with
// `a` in `corpus_a` and `b` in `corpus_b` can join only if
// NsldLowerBoundFromCharBags(...) <= T. That is the predicate the SLD
// budget is fixed against, and the bound never exceeds the exact or the
// greedy SLD, so the filter is lossless. It has no switch: the
// brute-force differentials check that it prunes nothing that joins.
struct BagFilter {
  const Corpus& corpus_a;
  const Corpus& corpus_b;
  double threshold = 0.0;

  bool Admits(uint32_t a, uint32_t b) const {
    return NsldLowerBoundFromCharBags(
               corpus_a.char_bag(a), corpus_b.char_bag(b),
               corpus_a.aggregate_length(a),
               corpus_b.aggregate_length(b)) <= threshold;
  }
};

// Calls visit(x, y) for every x of `xs` and y of `ys` whose aggregate
// lengths the window admits, and returns the number of such pairs. Both
// lists are sorted by (aggregate length, id). As x's length grows, both
// ends of its admitted range in `ys` only move right, so two pointers
// find them: `lo` skips the partners too short for x, `hi` stops at the
// first one too long.
template <typename Id, typename LengthOfX, typename LengthOfY, typename Visit>
uint64_t ForEachWindowedCross(std::span<const Id> xs,
                              const LengthOfX& length_of_x,
                              std::span<const Id> ys,
                              const LengthOfY& length_of_y,
                              const LengthWindow& window, const Visit& visit) {
  uint64_t visited = 0;
  size_t lo = 0;
  size_t hi = 0;
  for (const Id x : xs) {
    const size_t lx = length_of_x(x);
    while (lo < ys.size() && length_of_y(ys[lo]) < lx &&
           !window.Admits(lx, length_of_y(ys[lo]))) {
      ++lo;
    }
    hi = std::max(hi, lo);
    while (hi < ys.size() && (length_of_y(ys[hi]) <= lx ||
                              window.Admits(lx, length_of_y(ys[hi])))) {
      ++hi;
    }
    for (size_t k = lo; k < hi; ++k) visit(x, ys[k]);
    visited += hi - lo;
  }
  return visited;
}

// Sorts a reduce group's value run in place, dedups it, and returns the
// distinct prefix — the sorted-run grouping's dedup is this scan (the
// paper uses a hash set; sorting gives identical semantics and
// deterministic verification order).
std::span<uint32_t> DedupRun(std::span<uint32_t> others) {
  std::sort(others.begin(), others.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(others.begin(), others.end()) - others.begin());
  return others.first(distinct);
}

}  // namespace

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::SelfJoin(
    const Corpus& corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  TsjRunInfo local_info;
  Counters counters;
  const double t = options_.threshold;
  TokenPairCache local_cache;
  TokenPairCache* const pair_cache = SelectPairCache(options_, &local_cache);
  const uint64_t cache_hits_before =
      pair_cache != nullptr ? pair_cache->hits() : 0;
  const uint64_t cache_misses_before =
      pair_cache != nullptr ? pair_cache->misses() : 0;
  const uint64_t cache_l1_hits_before =
      pair_cache != nullptr ? pair_cache->l1_hits() : 0;
  const uint64_t cache_l1_misses_before =
      pair_cache != nullptr ? pair_cache->l1_misses() : 0;
  const uint64_t cache_flush_batches_before =
      pair_cache != nullptr ? pair_cache->flush_batches() : 0;
  const uint64_t cache_flushed_records_before =
      pair_cache != nullptr ? pair_cache->flushed_records() : 0;
  // One gauge threads through every job of the run (and the candidate
  // vectors between jobs), so TsjRunInfo reports the pipeline-wide peak of
  // shuffle-resident records.
  ShuffleGauge gauge;
  MapReduceOptions mr_options = options_.mapreduce;
  mr_options.shuffle_gauge = &gauge;
  // Spill gating: the engine-level budget applies only when the
  // join-level switch is on (the CC_SHUFFLE_SPILL_BUDGET test override
  // is engine-level and bypasses this gate by design).
  if (!options_.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  // Checkpoint gating mirrors spill gating. When armed and the caller
  // supplied no fingerprint, derive one from the corpus statistics and
  // the join parameters, so a restart restores checkpoints only when
  // they were written for this exact input and configuration.
  if (!options_.enable_checkpointing) {
    mr_options.checkpoint_dir.clear();
  } else if (mr_options.checkpoint_fingerprint == 0) {
    uint64_t fp = MixCheckpointFingerprint(0, corpus.size());
    fp = MixCheckpointFingerprint(fp, corpus.num_distinct_tokens());
    size_t total_token_occurrences = 0;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      total_token_occurrences += corpus.tokens(s).size();
    }
    fp = MixCheckpointFingerprint(fp, total_token_occurrences);
    fp = MixCheckpointFingerprint(fp, static_cast<uint64_t>(t * 1e9));
    fp = MixCheckpointFingerprint(fp, options_.max_token_frequency);
    // The length window shapes the sealed expansion (map2) output.
    fp = MixCheckpointFingerprint(fp, options_.enable_length_filter);
    mr_options.checkpoint_fingerprint = fp;
  }
  const LengthWindow window{options_.enable_length_filter, t};
  const BagFilter bags{corpus, corpus, t};
  auto length_of = [&corpus](uint32_t s) { return corpus.aggregate_length(s); };

  // ---- Token statistics: frequencies and the high-frequency cutoff. ----
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  std::vector<char> surviving(frequency.size(), 0);
  for (size_t token = 0; token < frequency.size(); ++token) {
    if (frequency[token] <= options_.max_token_frequency) {
      surviving[token] = 1;
    } else {
      ++local_info.dropped_tokens;
    }
  }

  // ---- Skew-adaptive partition planning. --------------------------------
  // The surviving-token frequency profile is exactly the per-key load
  // profile of the shared-token reduce (f records in, f*(f-1)/2 candidate
  // emissions out per token), so the partition count comes from the
  // cluster model's skew estimate instead of the fixed knob; every job of
  // the run (massjoin included) uses the planned count.
  if (options_.adaptive_partitions) {
    KeyLoadProfile profile;
    for (size_t token = 0; token < frequency.size(); ++token) {
      if (surviving[token]) profile.AddQuadraticKey(frequency[token]);
    }
    mr_options.num_partitions = AdaptivePartitionCount(
        mr_options.effective_workers(), profile, mr_options.num_partitions);
  }
  local_info.shuffle_partitions = mr_options.num_partitions;

  std::vector<uint32_t> string_ids(corpus.size());
  for (uint32_t i = 0; i < corpus.size(); ++i) string_ids[i] = i;

  // Distinct surviving tokens of one string, via a per-thread buffer: the
  // map side runs once per string and must not allocate a token-vector
  // copy every call.
  auto for_each_distinct_token = [&corpus, &surviving](uint32_t s,
                                                       const auto& fn) {
    thread_local std::vector<TokenId> distinct;
    distinct.assign(corpus.tokens(s).begin(), corpus.tokens(s).end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    AddWorkUnits(1 + distinct.size());
    for (TokenId token : distinct) {
      if (surviving[token]) fn(token);
    }
  };

  // ---- Similar-token candidate generation (Sec. III-D). ----------------
  // Runs before the main job so its token pairs can feed the fused
  // pipeline as side inputs; its JobStats are spliced into the pipeline in
  // the documented order (shared-token, massjoin, dedup-verify) below.
  // Token postings (token -> strings containing it) expand similar token
  // pairs back into string pairs.
  std::vector<std::vector<uint32_t>> postings;
  std::vector<SimilarTokenPair> token_pair_candidates;
  PipelineStats mass_stats;
  if (options_.matching == TokenMatching::kFuzzy) {
    // MassJoin NLD-join over the surviving token space. Distinct tokens
    // only: identical tokens are already covered by the shared-token pass.
    std::vector<std::string> token_texts;
    std::vector<TokenId> token_of_index;
    for (TokenId token = 0; token < surviving.size(); ++token) {
      if (surviving[token]) {
        token_texts.push_back(corpus.token_text(token));
        token_of_index.push_back(token);
      }
    }
    MassJoinOptions mass_options;
    mass_options.mapreduce = mr_options;
    mass_options.enable_shuffle_spill = options_.enable_shuffle_spill;
    mass_options.enable_checkpointing = options_.enable_checkpointing;
    const std::vector<NldPair> token_pairs =
        MassJoinSelfNld(token_texts, t, mass_options, &mass_stats);
    local_info.similar_token_pairs = token_pairs.size();

    postings.resize(corpus.num_distinct_tokens());
    std::vector<TokenId> distinct;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      distinct.assign(corpus.tokens(s).begin(), corpus.tokens(s).end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (TokenId token : distinct) {
        if (surviving[token]) postings[token].push_back(s);
      }
    }
    // Sorted once here, so every expansion walks a length window.
    for (std::vector<uint32_t>& list : postings) {
      SortByAggregateLength(list, length_of);
    }
    token_pair_candidates.reserve(token_pairs.size());
    for (const NldPair& pair : token_pairs) {
      token_pair_candidates.push_back(
          SimilarTokenPair{token_of_index[pair.a], token_of_index[pair.b]});
    }
  }

  // Empty tokenized strings have no tokens and thus no signatures, yet any
  // two of them are identical (NSLD = 0): they are unconditional results,
  // emitted directly instead of pushing O(e^2) candidates through the
  // dedup/verify pipeline. A "blank" string, whose tokens are all empty
  // (aggregate length 0), is identical to them too. The pipeline pairs
  // blanks with each other through their shared empty token, but never
  // with a token-free string, so those pairs are emitted here as well. No
  // pipeline path can rediscover a token-free string (it never reaches a
  // posting), so no dedup is needed.
  std::vector<TsjPair> results;
  {
    std::vector<uint32_t> empties;
    std::vector<uint32_t> blanks;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      if (corpus.tokens(s).empty()) {
        empties.push_back(s);
      } else if (corpus.aggregate_length(s) == 0) {
        blanks.push_back(s);
      }
    }
    for (size_t i = 0; i < empties.size(); ++i) {
      for (size_t j = i + 1; j < empties.size(); ++j) {
        results.push_back(TsjPair{empties[i], empties[j], 0.0});
      }
      for (const uint32_t blank : blanks) {
        results.push_back(TsjPair{std::min(empties[i], blank),
                                  std::max(empties[i], blank), 0.0});
      }
    }
  }

  // Expands one similar-token pair into the string-pair candidates the
  // length window and the bag filter admit, through the postings (the
  // dedup/verify stage's map side).
  auto expand_token_pair = [&](const SimilarTokenPair& cand,
                               const auto& emit) {
    const std::vector<uint32_t>& xs = postings[cand.a];
    const std::vector<uint32_t>& ys = postings[cand.b];
    uint64_t emitted = 0;
    uint64_t bag_skipped = 0;
    const uint64_t admitted = ForEachWindowedCross<uint32_t>(
        xs, length_of, ys, length_of, window, [&](uint32_t s1, uint32_t s2) {
          if (s1 == s2) return;
          if (!bags.Admits(s1, s2)) {
            ++bag_skipped;
            return;
          }
          emit(std::min(s1, s2), std::max(s1, s2));
          ++emitted;
        });
    AddWorkUnits(1 + xs.size() + ys.size() + admitted);
    counters.similar_token_candidates.fetch_add(emitted,
                                                std::memory_order_relaxed);
    counters.length_filtered.fetch_add(xs.size() * ys.size() - admitted,
                                       std::memory_order_relaxed);
    counters.bag_filtered.fetch_add(bag_skipped, std::memory_order_relaxed);
  };

  const Corpus& corpus_ref = corpus;
  const TsjOptions& options_ref = options_;

  // Partition-task boundary: fully drain the verify worker's deferred
  // cache upserts, so everything this run computed reaches the shared
  // tier by job end even when no group-level batch ever filled. Set here
  // — after massjoin captured its own copy of mr_options — so only the
  // dedup/verify jobs run it.
  if (pair_cache != nullptr) {
    mr_options.reduce_partition_epilogue = [pair_cache] {
      VerifyScratch().l1.Flush(pair_cache);
    };
  }

  // ---- Fused pipeline: candidate generation streams into the dedup/
  // verify shuffle; the pre-dedup candidate universe is never
  // materialized. The similar-token pairs ride along as side inputs.
  auto map_tokens = [&](const uint32_t& s,
                        PartitionedEmitter<uint32_t, uint32_t>* out) {
    for_each_distinct_token(s, [&](TokenId token) { out->Emit(token, s); });
  };
  // Emits the unordered pairs of one token's strings that the length
  // window and the bag filter admit, straight into the dedup shuffle
  // (Sec. III-C's reduce, fused with Job 2's map). Sorted by (aggregate
  // length, id), each string's partner scan stops at its first partner
  // too long for it.
  auto for_each_shared_pair = [&](std::span<uint32_t> strings,
                                  const auto& emit) {
    SortByAggregateLength(strings, length_of);
    uint64_t admitted = 0;
    uint64_t emitted = 0;
    for (size_t i = 0; i < strings.size(); ++i) {
      const size_t li = length_of(strings[i]);
      for (size_t j = i + 1;
           j < strings.size() && window.Admits(li, length_of(strings[j]));
           ++j) {
        ++admitted;
        if (!bags.Admits(strings[i], strings[j])) continue;
        emit(std::min(strings[i], strings[j]),
             std::max(strings[i], strings[j]));
        ++emitted;
      }
    }
    const uint64_t pairs =
        static_cast<uint64_t>(strings.size()) * (strings.size() - 1) / 2;
    AddWorkUnits(strings.size() + admitted);
    counters.shared_token_candidates.fetch_add(emitted,
                                               std::memory_order_relaxed);
    counters.length_filtered.fetch_add(pairs - admitted,
                                       std::memory_order_relaxed);
    counters.bag_filtered.fetch_add(admitted - emitted,
                                    std::memory_order_relaxed);
  };

  JobStats stage1_stats, stage2_stats;
  gauge.Add(token_pair_candidates.size());  // side-input vector
  std::vector<TsjPair> streamed;
  if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
    using PairKey = std::pair<uint32_t, uint32_t>;
    auto reduce_shared = [&](const uint32_t& /*token*/,
                             std::span<uint32_t> strings,
                             PartitionedEmitter<PairKey, char>* out) {
      for_each_shared_pair(strings, [&](uint32_t a, uint32_t b) {
        out->Emit(PairKey{a, b}, 0);
      });
    };
    auto map_expand = [&](const SimilarTokenPair& cand,
                          PartitionedEmitter<PairKey, char>* out) {
      expand_token_pair(cand, [&](uint32_t a, uint32_t b) {
        out->Emit(PairKey{a, b}, 0);
      });
    };
    // Grouping-on-both-strings: one distinct pair per group.
    auto reduce_verify = [&corpus_ref, &options_ref, &counters, pair_cache](
                             const PairKey& key, std::span<char> duplicates,
                             std::vector<TsjPair>* out) {
      counters.distinct_candidates.fetch_add(1, std::memory_order_relaxed);
      AddWorkUnits(duplicates.size());  // duplicate copies read, discarded
      FilterAndVerify(corpus_ref, corpus_ref, options_ref, &counters,
                      pair_cache, key.first, key.second, out);
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    // Shuffle combiner: duplicate copies of one pair collapse inside the
    // producing task (the reducer treats the run length only as a
    // duplicate tally).
    const CombinerFn<PairKey, char> combine_duplicates =
        options_.enable_shuffle_combiner ? KeepFirstCombiner<PairKey, char>()
                                         : nullptr;
    streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                       SimilarTokenPair, PairKey, char,
                                       TsjPair>(
        "tsj-shared-token", "tsj-dedup-verify-both", string_ids, map_tokens,
        reduce_shared, token_pair_candidates, map_expand, reduce_verify,
        mr_options, &stage1_stats, &stage2_stats,
        /*combiner1=*/nullptr, combine_duplicates);
  } else {
    auto emit_keyed = [](uint32_t a, uint32_t b,
                         PartitionedEmitter<uint32_t, uint32_t>* out) {
      const uint32_t key = PickGroupKey(a, b);
      out->Emit(key, key == a ? b : a);
    };
    auto reduce_shared = [&](const uint32_t& /*token*/,
                             std::span<uint32_t> strings,
                             PartitionedEmitter<uint32_t, uint32_t>* out) {
      for_each_shared_pair(
          strings, [&](uint32_t a, uint32_t b) { emit_keyed(a, b, out); });
    };
    auto map_expand = [&](const SimilarTokenPair& cand,
                          PartitionedEmitter<uint32_t, uint32_t>* out) {
      expand_token_pair(
          cand, [&](uint32_t a, uint32_t b) { emit_keyed(a, b, out); });
    };
    // Grouping-on-one-string: the reducer dedups and verifies all of the
    // key string's candidates.
    auto reduce_verify = [&corpus_ref, &options_ref, &counters, pair_cache](
                             const uint32_t& key, std::span<uint32_t> others,
                             std::vector<TsjPair>* out) {
      AddWorkUnits(others.size());
      const std::span<uint32_t> distinct = DedupRun(others);
      counters.distinct_candidates.fetch_add(distinct.size(),
                                             std::memory_order_relaxed);
      SortByAggregateLength(distinct, [&](uint32_t s) {
        return corpus_ref.aggregate_length(s);
      });
      for (uint32_t other : distinct) {
        FilterAndVerify(corpus_ref, corpus_ref, options_ref, &counters,
                        pair_cache, std::min(key, other),
                        std::max(key, other), out);
      }
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    // Shuffle combiner: one string's candidate list dedups inside the
    // producing task (sort + unique, the same scan DedupRun finishes
    // across producers at the reducer).
    const CombinerFn<uint32_t, uint32_t> combine_duplicates =
        options_.enable_shuffle_combiner
            ? SortUniqueCombiner<uint32_t, uint32_t>()
            : nullptr;
    streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                       SimilarTokenPair, uint32_t, uint32_t,
                                       TsjPair>(
        "tsj-shared-token", "tsj-dedup-verify-one", string_ids, map_tokens,
        reduce_shared, token_pair_candidates, map_expand, reduce_verify,
        mr_options, &stage1_stats, &stage2_stats,
        /*combiner1=*/nullptr, combine_duplicates);
  }
  gauge.Sub(token_pair_candidates.size());
  results.insert(results.end(), streamed.begin(), streamed.end());
  local_info.shared_token_candidates = counters.shared_token_candidates;
  local_info.pipeline.Add(std::move(stage1_stats));
  local_info.pipeline.Append(mass_stats);
  local_info.pipeline.Add(std::move(stage2_stats));

  local_info.similar_token_candidates = counters.similar_token_candidates;
  local_info.distinct_candidates = counters.distinct_candidates;
  local_info.length_filtered = counters.length_filtered;
  local_info.bag_filtered = counters.bag_filtered;
  local_info.histogram_filtered = counters.histogram_filtered;
  local_info.verified_candidates = counters.verified_candidates;
  local_info.verify_work_units = counters.verify_work_units;
  if (pair_cache != nullptr) {
    // Deltas, so a caller-shared warm cache reports this run's traffic.
    local_info.token_pair_cache_hits = pair_cache->hits() - cache_hits_before;
    local_info.token_pair_cache_misses =
        pair_cache->misses() - cache_misses_before;
    local_info.token_pair_cache_l1_hits =
        pair_cache->l1_hits() - cache_l1_hits_before;
    local_info.token_pair_cache_l1_misses =
        pair_cache->l1_misses() - cache_l1_misses_before;
    local_info.token_pair_cache_flush_batches =
        pair_cache->flush_batches() - cache_flush_batches_before;
    local_info.token_pair_cache_flushed_records =
        pair_cache->flushed_records() - cache_flushed_records_before;
  }
  local_info.combiner_input_records =
      local_info.pipeline.total_combiner_input_records();
  local_info.combiner_output_records =
      local_info.pipeline.total_combiner_output_records();
  local_info.spilled_records = local_info.pipeline.total_spilled_records();
  local_info.spill_files = local_info.pipeline.total_spill_files();
  local_info.spill_bytes = local_info.pipeline.total_spill_bytes();
  local_info.spill_raw_bytes =
      local_info.pipeline.total_spill_raw_bytes();
  local_info.merge_passes = local_info.pipeline.total_merge_passes();
  local_info.checksum_failures =
      local_info.pipeline.total_checksum_failures();
  local_info.prefetch_hits = local_info.pipeline.total_prefetch_hits();
  local_info.peak_resident_records =
      local_info.pipeline.max_peak_resident_records();
  local_info.task_failures = local_info.pipeline.total_task_failures();
  local_info.task_retries = local_info.pipeline.total_task_retries();
  local_info.tasks_cancelled =
      local_info.pipeline.total_tasks_cancelled();
  local_info.tasks_degraded = local_info.pipeline.total_tasks_degraded();
  local_info.tasks_checkpointed =
      local_info.pipeline.total_tasks_checkpointed();
  local_info.tasks_skipped_by_checkpoint =
      local_info.pipeline.total_tasks_skipped_by_checkpoint();
  local_info.hedges_launched = local_info.pipeline.total_hedges_launched();
  local_info.hedges_won = local_info.pipeline.total_hedges_won();
  local_info.result_pairs = results.size();
  local_info.peak_shuffle_records = gauge.peak();
  // Lossy spill faults (failed run reads: a partition's merge aborted,
  // records may be missing) become the join's error. Degraded write
  // faults are deliberately NOT an error — their records stayed in
  // memory and the result is complete; they remain visible through the
  // per-job JobStats::spill_status entries in the pipeline.
  if (Status s = local_info.pipeline.first_spill_data_loss(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  // A fatal task error aborted a job (outputs incomplete): fail the join
  // with the root cause. Retryable faults a retry absorbed are not
  // errors — they are visible through the task counters only.
  if (Status s = local_info.pipeline.first_task_error(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  if (info != nullptr) *info = std::move(local_info);
  return results;
}

namespace {

// A string id tagged with the collection it belongs to, packed for use as
// a MapReduce key in the R x P join.
inline uint64_t TagId(bool is_p_side, uint32_t id) {
  return (static_cast<uint64_t>(is_p_side) << 32) | id;
}
inline bool TagIsP(uint64_t tagged) { return (tagged >> 32) != 0; }
inline uint32_t TagStringId(uint64_t tagged) {
  return static_cast<uint32_t>(tagged);
}

// Hash-balanced key choice for grouping-on-one-string over the tagged id
// space: either the R or the P string becomes the reduce key.
inline bool KeyIsR(uint64_t tag_r, uint64_t tag_p) {
  const uint64_t hr = Mix64(tag_r);
  const uint64_t hp = Mix64(tag_p);
  const uint64_t lt = (hr < hp) ? 1u : 0u;
  return lt == ((hr + hp) & 1u);
}

}  // namespace

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::Join(
    const Corpus& r_corpus, const Corpus& p_corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  TsjRunInfo local_info;
  Counters counters;
  const double t = options_.threshold;
  // The id-space-sharing precondition of the cache only holds when both
  // sides are literally the same corpus (then Join degenerates to the
  // self-join's verification situation); otherwise the verify falls back
  // to the materialized byte path and the cache stays unused.
  TokenPairCache local_cache;
  TokenPairCache* const pair_cache =
      (&r_corpus == &p_corpus) ? SelectPairCache(options_, &local_cache)
                               : nullptr;
  const uint64_t cache_hits_before =
      pair_cache != nullptr ? pair_cache->hits() : 0;
  const uint64_t cache_misses_before =
      pair_cache != nullptr ? pair_cache->misses() : 0;
  const uint64_t cache_l1_hits_before =
      pair_cache != nullptr ? pair_cache->l1_hits() : 0;
  const uint64_t cache_l1_misses_before =
      pair_cache != nullptr ? pair_cache->l1_misses() : 0;
  const uint64_t cache_flush_batches_before =
      pair_cache != nullptr ? pair_cache->flush_batches() : 0;
  const uint64_t cache_flushed_records_before =
      pair_cache != nullptr ? pair_cache->flushed_records() : 0;
  ShuffleGauge gauge;
  MapReduceOptions mr_options = options_.mapreduce;
  mr_options.shuffle_gauge = &gauge;
  // Spill gating, as in SelfJoin.
  if (!options_.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  // Checkpoint gating, as in SelfJoin, with both corpora folded into the
  // derived fingerprint.
  if (!options_.enable_checkpointing) {
    mr_options.checkpoint_dir.clear();
  } else if (mr_options.checkpoint_fingerprint == 0) {
    uint64_t fp = MixCheckpointFingerprint(0, r_corpus.size());
    fp = MixCheckpointFingerprint(fp, r_corpus.num_distinct_tokens());
    fp = MixCheckpointFingerprint(fp, p_corpus.size());
    fp = MixCheckpointFingerprint(fp, p_corpus.num_distinct_tokens());
    size_t total_token_occurrences = 0;
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      total_token_occurrences += r_corpus.tokens(s).size();
    }
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      total_token_occurrences += p_corpus.tokens(s).size();
    }
    fp = MixCheckpointFingerprint(fp, total_token_occurrences);
    fp = MixCheckpointFingerprint(fp, static_cast<uint64_t>(t * 1e9));
    fp = MixCheckpointFingerprint(fp, options_.max_token_frequency);
    fp = MixCheckpointFingerprint(fp, options_.enable_length_filter);
    mr_options.checkpoint_fingerprint = fp;
  }
  const LengthWindow window{options_.enable_length_filter, t};
  const BagFilter bags{r_corpus, p_corpus, t};
  auto r_length = [&r_corpus](uint32_t s) {
    return r_corpus.aggregate_length(s);
  };
  auto p_length = [&p_corpus](uint32_t s) {
    return p_corpus.aggregate_length(s);
  };

  // ---- Joint token space. ------------------------------------------------
  // Tokens are interned per corpus; the join needs one id space covering
  // both, with document frequency summed across collections (M bounds a
  // token's total string count, matching the reduce-group size it causes).
  // Keys are string_views into the corpora's interned token texts (both
  // corpora outlive the join), so building the joint space copies no token
  // text; the map is pre-sized for the no-overlap worst case.
  std::unordered_map<std::string_view, uint32_t> joint_ids;
  joint_ids.reserve(r_corpus.num_distinct_tokens() +
                    p_corpus.num_distinct_tokens());
  std::vector<std::string_view> joint_texts;
  joint_texts.reserve(r_corpus.num_distinct_tokens() +
                      p_corpus.num_distinct_tokens());
  auto joint_of = [&](const std::string& text) {
    const auto [it, inserted] = joint_ids.emplace(
        std::string_view(text), static_cast<uint32_t>(joint_texts.size()));
    if (inserted) joint_texts.push_back(it->first);
    return it->second;
  };
  std::vector<uint32_t> r_joint(r_corpus.num_distinct_tokens());
  for (TokenId token = 0; token < r_corpus.num_distinct_tokens(); ++token) {
    r_joint[token] = joint_of(r_corpus.token_text(token));
  }
  std::vector<uint32_t> p_joint(p_corpus.num_distinct_tokens());
  for (TokenId token = 0; token < p_corpus.num_distinct_tokens(); ++token) {
    p_joint[token] = joint_of(p_corpus.token_text(token));
  }
  std::vector<uint32_t> joint_freq(joint_texts.size(), 0);
  {
    const auto r_freq = r_corpus.ComputeTokenStringFrequencies();
    for (TokenId token = 0; token < r_freq.size(); ++token) {
      joint_freq[r_joint[token]] += r_freq[token];
    }
    const auto p_freq = p_corpus.ComputeTokenStringFrequencies();
    for (TokenId token = 0; token < p_freq.size(); ++token) {
      joint_freq[p_joint[token]] += p_freq[token];
    }
  }
  std::vector<char> surviving(joint_texts.size(), 0);
  for (size_t j = 0; j < joint_texts.size(); ++j) {
    if (joint_freq[j] <= options_.max_token_frequency) {
      surviving[j] = 1;
    } else {
      ++local_info.dropped_tokens;
    }
  }

  // ---- Skew-adaptive partition planning (joint-token profile; the R x P
  // reduce group of a token with joint frequency f carries at most
  // (f/2)^2 cross pairs, the f*(f-1)/2 bound stays the consistent
  // upper-bound proxy used by SelfJoin). ------------------------------
  if (options_.adaptive_partitions) {
    KeyLoadProfile profile;
    for (size_t j = 0; j < joint_texts.size(); ++j) {
      if (surviving[j]) profile.AddQuadraticKey(joint_freq[j]);
    }
    mr_options.num_partitions = AdaptivePartitionCount(
        mr_options.effective_workers(), profile, mr_options.num_partitions);
  }
  local_info.shuffle_partitions = mr_options.num_partitions;

  // Distinct surviving joint tokens of one string.
  auto distinct_joint = [&surviving](const Corpus& corpus,
                                     const std::vector<uint32_t>& to_joint,
                                     uint32_t s) {
    std::vector<uint32_t> joint;
    joint.reserve(corpus.tokens(s).size());
    for (TokenId token : corpus.tokens(s)) joint.push_back(to_joint[token]);
    std::sort(joint.begin(), joint.end());
    joint.erase(std::unique(joint.begin(), joint.end()), joint.end());
    joint.erase(std::remove_if(joint.begin(), joint.end(),
                               [&](uint32_t j) { return !surviving[j]; }),
                joint.end());
    return joint;
  };

  // ---- Similar-token candidates (Sec. III-D, two-collection form). ------
  std::vector<std::vector<uint32_t>> r_postings;
  std::vector<std::vector<uint32_t>> p_postings;
  std::vector<SimilarTokenPair> token_pair_candidates;
  PipelineStats mass_stats;
  if (options_.matching == TokenMatching::kFuzzy) {
    std::vector<std::string> survivor_texts;
    std::vector<uint32_t> survivor_joint;
    for (uint32_t j = 0; j < joint_texts.size(); ++j) {
      if (surviving[j]) {
        survivor_texts.emplace_back(joint_texts[j]);
        survivor_joint.push_back(j);
      }
    }
    MassJoinOptions mass_options;
    mass_options.mapreduce = mr_options;
    mass_options.enable_shuffle_spill = options_.enable_shuffle_spill;
    mass_options.enable_checkpointing = options_.enable_checkpointing;
    const std::vector<NldPair> token_pairs =
        MassJoinSelfNld(survivor_texts, t, mass_options, &mass_stats);
    local_info.similar_token_pairs = token_pairs.size();

    r_postings.resize(joint_texts.size());
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      for (uint32_t j : distinct_joint(r_corpus, r_joint, s)) {
        r_postings[j].push_back(s);
      }
    }
    p_postings.resize(joint_texts.size());
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      for (uint32_t j : distinct_joint(p_corpus, p_joint, s)) {
        p_postings[j].push_back(s);
      }
    }
    // Sorted once here, so every expansion walks a length window.
    for (std::vector<uint32_t>& list : r_postings) {
      SortByAggregateLength(list, r_length);
    }
    for (std::vector<uint32_t>& list : p_postings) {
      SortByAggregateLength(list, p_length);
    }
    token_pair_candidates.reserve(token_pairs.size());
    for (const NldPair& pair : token_pairs) {
      token_pair_candidates.push_back(
          SimilarTokenPair{survivor_joint[pair.a], survivor_joint[pair.b]});
    }
  }

  // Empty strings on both sides are identical (NSLD = 0) but
  // signature-less: unconditional results, emitted directly (no pipeline
  // path can rediscover a token-free string). So are their pairs with
  // blank strings, whose tokens are all empty (see SelfJoin); blank pairs
  // meet in the pipeline through the shared empty token.
  std::vector<TsjPair> results;
  {
    std::vector<uint32_t> r_empty, p_empty, r_blank, p_blank;
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      if (r_corpus.tokens(s).empty()) {
        r_empty.push_back(s);
      } else if (r_corpus.aggregate_length(s) == 0) {
        r_blank.push_back(s);
      }
    }
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      if (p_corpus.tokens(s).empty()) {
        p_empty.push_back(s);
      } else if (p_corpus.aggregate_length(s) == 0) {
        p_blank.push_back(s);
      }
    }
    for (uint32_t r : r_empty) {
      for (uint32_t p : p_empty) results.push_back(TsjPair{r, p, 0.0});
      for (uint32_t p : p_blank) results.push_back(TsjPair{r, p, 0.0});
    }
    for (uint32_t r : r_blank) {
      for (uint32_t p : p_empty) results.push_back(TsjPair{r, p, 0.0});
    }
  }

  // ---- Candidate generation inputs. --------------------------------------
  std::vector<uint64_t> tagged_ids;
  tagged_ids.reserve(r_corpus.size() + p_corpus.size());
  for (uint32_t s = 0; s < r_corpus.size(); ++s) {
    tagged_ids.push_back(TagId(false, s));
  }
  for (uint32_t s = 0; s < p_corpus.size(); ++s) {
    tagged_ids.push_back(TagId(true, s));
  }

  // A similar token pair (j1, j2) joins R strings containing either token
  // with P strings containing the other, within the length window and the
  // bag filter.
  auto expand_token_pair = [&](const SimilarTokenPair& cand, const auto& emit) {
    AddWorkUnits(1);
    auto cross = [&](uint32_t jr, uint32_t jp) {
      const std::vector<uint32_t>& rs = r_postings[jr];
      const std::vector<uint32_t>& ps = p_postings[jp];
      uint64_t emitted = 0;
      const uint64_t pairs = ForEachWindowedCross<uint32_t>(
          rs, r_length, ps, p_length, window, [&](uint32_t r, uint32_t p) {
            if (!bags.Admits(r, p)) return;
            emit(r, p);
            ++emitted;
          });
      AddWorkUnits(rs.size() + ps.size() + pairs);
      counters.similar_token_candidates.fetch_add(emitted,
                                                  std::memory_order_relaxed);
      counters.length_filtered.fetch_add(rs.size() * ps.size() - pairs,
                                         std::memory_order_relaxed);
      counters.bag_filtered.fetch_add(pairs - emitted,
                                      std::memory_order_relaxed);
    };
    cross(cand.a, cand.b);
    cross(cand.b, cand.a);
  };

  const Corpus& r_ref = r_corpus;
  const Corpus& p_ref = p_corpus;

  // Partition-task boundary: fully drain the verify worker's deferred
  // cache upserts (see SelfJoin; set after massjoin captured its copy).
  if (pair_cache != nullptr) {
    mr_options.reduce_partition_epilogue = [pair_cache] {
      VerifyScratch().l1.Flush(pair_cache);
    };
  }

  // ---- Fused pipeline (two-collection form). ---------------------------
  auto map_tokens = [&](const uint64_t& tagged,
                        PartitionedEmitter<uint32_t, uint64_t>* out) {
    const bool is_p = TagIsP(tagged);
    const uint32_t s = TagStringId(tagged);
    const auto joint = is_p ? distinct_joint(p_corpus, p_joint, s)
                            : distinct_joint(r_corpus, r_joint, s);
    AddWorkUnits(1 + joint.size());
    for (uint32_t j : joint) out->Emit(j, tagged);
  };
  // Cross product of the R-side and P-side strings sharing this token
  // (the reduce of Sec. III-C in its two-collection form), within the
  // length window and the bag filter, streamed straight into the dedup
  // shuffle. The group sorts into its R strings, then its P strings, each
  // by (aggregate length, id), and the two runs cross through the
  // two-pointer window.
  auto tagged_length = [&](uint64_t tagged) {
    return TagIsP(tagged) ? p_length(TagStringId(tagged))
                          : r_length(TagStringId(tagged));
  };
  auto for_each_cross = [&](std::span<uint64_t> values, const auto& emit) {
    std::sort(values.begin(), values.end(), [&](uint64_t x, uint64_t y) {
      if (TagIsP(x) != TagIsP(y)) return TagIsP(y);
      const size_t lx = tagged_length(x);
      const size_t ly = tagged_length(y);
      if (lx != ly) return lx < ly;
      return x < y;
    });
    const size_t num_r = static_cast<size_t>(
        std::partition_point(values.begin(), values.end(),
                             [](uint64_t v) { return !TagIsP(v); }) -
        values.begin());
    const std::span<const uint64_t> rs = values.first(num_r);
    const std::span<const uint64_t> ps = values.subspan(num_r);
    uint64_t emitted = 0;
    const uint64_t pairs = ForEachWindowedCross<uint64_t>(
        rs, tagged_length, ps, tagged_length, window,
        [&](uint64_t r, uint64_t p) {
          if (!bags.Admits(TagStringId(r), TagStringId(p))) return;
          emit(TagStringId(r), TagStringId(p));
          ++emitted;
        });
    AddWorkUnits(values.size() + pairs);
    counters.shared_token_candidates.fetch_add(emitted,
                                               std::memory_order_relaxed);
    counters.length_filtered.fetch_add(rs.size() * ps.size() - pairs,
                                       std::memory_order_relaxed);
    counters.bag_filtered.fetch_add(pairs - emitted,
                                    std::memory_order_relaxed);
  };

  JobStats stage1_stats, stage2_stats;
  gauge.Add(token_pair_candidates.size());  // side-input vector
  std::vector<TsjPair> streamed;
  if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
    using PairKey = std::pair<uint32_t, uint32_t>;
    auto reduce_shared = [&](const uint32_t& /*token*/,
                             std::span<uint64_t> values,
                             PartitionedEmitter<PairKey, char>* out) {
      for_each_cross(values, [&](uint32_t r, uint32_t p) {
        out->Emit(PairKey{r, p}, 0);
      });
    };
    auto map_expand = [&](const SimilarTokenPair& cand,
                          PartitionedEmitter<PairKey, char>* out) {
      expand_token_pair(cand, [&](uint32_t r, uint32_t p) {
        out->Emit(PairKey{r, p}, 0);
      });
    };
    // Grouping-on-both-strings: one distinct (r, p) pair per group.
    auto reduce_verify = [&](const PairKey& key, std::span<char> duplicates,
                             std::vector<TsjPair>* out) {
      counters.distinct_candidates.fetch_add(1, std::memory_order_relaxed);
      AddWorkUnits(duplicates.size());
      FilterAndVerify(r_ref, p_ref, options_, &counters, pair_cache,
                      key.first, key.second, out);
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    const CombinerFn<PairKey, char> combine_duplicates =
        options_.enable_shuffle_combiner ? KeepFirstCombiner<PairKey, char>()
                                         : nullptr;
    streamed = RunFusedMapReduceSorted<uint64_t, uint32_t, uint64_t,
                                       SimilarTokenPair, PairKey, char,
                                       TsjPair>(
        "tsj-rp-shared-token", "tsj-rp-dedup-verify-both", tagged_ids,
        map_tokens, reduce_shared, token_pair_candidates, map_expand,
        reduce_verify, mr_options, &stage1_stats, &stage2_stats,
        /*combiner1=*/nullptr, combine_duplicates);
  } else {
    // Grouping-on-one-string over the tagged id space: the hash-balanced
    // rule picks either the R or the P string as the reduce key.
    auto emit_keyed = [](uint32_t r, uint32_t p,
                         PartitionedEmitter<uint64_t, uint32_t>* out) {
      const uint64_t tag_r = TagId(false, r);
      const uint64_t tag_p = TagId(true, p);
      const bool key_is_r = KeyIsR(tag_r, tag_p);
      out->Emit(key_is_r ? tag_r : tag_p, key_is_r ? p : r);
    };
    auto reduce_shared = [&](const uint32_t& /*token*/,
                             std::span<uint64_t> values,
                             PartitionedEmitter<uint64_t, uint32_t>* out) {
      for_each_cross(values,
                     [&](uint32_t r, uint32_t p) { emit_keyed(r, p, out); });
    };
    auto map_expand = [&](const SimilarTokenPair& cand,
                          PartitionedEmitter<uint64_t, uint32_t>* out) {
      expand_token_pair(
          cand, [&](uint32_t r, uint32_t p) { emit_keyed(r, p, out); });
    };
    auto reduce_verify = [&](const uint64_t& key, std::span<uint32_t> others,
                             std::vector<TsjPair>* out) {
      AddWorkUnits(others.size());
      const std::span<uint32_t> distinct = DedupRun(others);
      counters.distinct_candidates.fetch_add(distinct.size(),
                                             std::memory_order_relaxed);
      const bool key_is_p = TagIsP(key);
      const uint32_t key_id = TagStringId(key);
      // Length-sorted batching: `others` all come from the collection
      // opposite the key.
      const Corpus& other_corpus = key_is_p ? r_ref : p_ref;
      SortByAggregateLength(distinct, [&](uint32_t s) {
        return other_corpus.aggregate_length(s);
      });
      for (uint32_t other : distinct) {
        const uint32_t r = key_is_p ? other : key_id;
        const uint32_t p = key_is_p ? key_id : other;
        FilterAndVerify(r_ref, p_ref, options_, &counters, pair_cache, r, p,
                        out);
      }
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    const CombinerFn<uint64_t, uint32_t> combine_duplicates =
        options_.enable_shuffle_combiner
            ? SortUniqueCombiner<uint64_t, uint32_t>()
            : nullptr;
    streamed = RunFusedMapReduceSorted<uint64_t, uint32_t, uint64_t,
                                       SimilarTokenPair, uint64_t, uint32_t,
                                       TsjPair>(
        "tsj-rp-shared-token", "tsj-rp-dedup-verify-one", tagged_ids,
        map_tokens, reduce_shared, token_pair_candidates, map_expand,
        reduce_verify, mr_options, &stage1_stats, &stage2_stats,
        /*combiner1=*/nullptr, combine_duplicates);
  }
  gauge.Sub(token_pair_candidates.size());
  results.insert(results.end(), streamed.begin(), streamed.end());
  local_info.shared_token_candidates = counters.shared_token_candidates;
  local_info.pipeline.Add(std::move(stage1_stats));
  local_info.pipeline.Append(mass_stats);
  local_info.pipeline.Add(std::move(stage2_stats));

  local_info.similar_token_candidates = counters.similar_token_candidates;
  local_info.distinct_candidates = counters.distinct_candidates;
  local_info.length_filtered = counters.length_filtered;
  local_info.bag_filtered = counters.bag_filtered;
  local_info.histogram_filtered = counters.histogram_filtered;
  local_info.verified_candidates = counters.verified_candidates;
  local_info.verify_work_units = counters.verify_work_units;
  if (pair_cache != nullptr) {
    local_info.token_pair_cache_hits = pair_cache->hits() - cache_hits_before;
    local_info.token_pair_cache_misses =
        pair_cache->misses() - cache_misses_before;
    local_info.token_pair_cache_l1_hits =
        pair_cache->l1_hits() - cache_l1_hits_before;
    local_info.token_pair_cache_l1_misses =
        pair_cache->l1_misses() - cache_l1_misses_before;
    local_info.token_pair_cache_flush_batches =
        pair_cache->flush_batches() - cache_flush_batches_before;
    local_info.token_pair_cache_flushed_records =
        pair_cache->flushed_records() - cache_flushed_records_before;
  }
  local_info.combiner_input_records =
      local_info.pipeline.total_combiner_input_records();
  local_info.combiner_output_records =
      local_info.pipeline.total_combiner_output_records();
  local_info.spilled_records = local_info.pipeline.total_spilled_records();
  local_info.spill_files = local_info.pipeline.total_spill_files();
  local_info.spill_bytes = local_info.pipeline.total_spill_bytes();
  local_info.spill_raw_bytes =
      local_info.pipeline.total_spill_raw_bytes();
  local_info.merge_passes = local_info.pipeline.total_merge_passes();
  local_info.checksum_failures =
      local_info.pipeline.total_checksum_failures();
  local_info.prefetch_hits = local_info.pipeline.total_prefetch_hits();
  local_info.peak_resident_records =
      local_info.pipeline.max_peak_resident_records();
  local_info.task_failures = local_info.pipeline.total_task_failures();
  local_info.task_retries = local_info.pipeline.total_task_retries();
  local_info.tasks_cancelled =
      local_info.pipeline.total_tasks_cancelled();
  local_info.tasks_degraded = local_info.pipeline.total_tasks_degraded();
  local_info.tasks_checkpointed =
      local_info.pipeline.total_tasks_checkpointed();
  local_info.tasks_skipped_by_checkpoint =
      local_info.pipeline.total_tasks_skipped_by_checkpoint();
  local_info.hedges_launched = local_info.pipeline.total_hedges_launched();
  local_info.hedges_won = local_info.pipeline.total_hedges_won();
  local_info.result_pairs = results.size();
  local_info.peak_shuffle_records = gauge.peak();
  // Lossy spill faults become the join's error (see SelfJoin).
  if (Status s = local_info.pipeline.first_spill_data_loss(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  // Fatal task errors fail the join too (see SelfJoin).
  if (Status s = local_info.pipeline.first_task_error(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  if (info != nullptr) *info = std::move(local_info);
  return results;
}

}  // namespace tsj
