#include "tsj/tsj.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/worker_slots.h"
#include "distance/normalized_levenshtein.h"
#include "massjoin/mass_join.h"
#include "tokenized/bounds.h"
#include "tokenized/sld.h"

namespace tsj {

namespace {

// A similar-token pair from the MassJoin pass, still to be expanded
// against the token postings: the dedup/verify stage's side input. `a` and
// `b` index the pipeline's posting lists, not the token ids.
// (Shared-token candidate pairs are never materialized; they stream
// straight from the generating reduce into the dedup shuffle.)
struct SimilarTokenPair {
  uint32_t a = 0;
  uint32_t b = 0;
};

// Which pairs of a token's strings are candidates. A self-join pairs any
// two of them. An R x P run (Join) holds R's strings at ids
// [0, boundary) of one corpus and P's after them, and pairs an R string
// only with a P string; every R id is below every P id, so such a pair
// already has a < b. Only pair enumeration reads this.
struct Sides {
  bool cross = false;
  uint32_t boundary = 0;

  bool IsR(uint32_t s) const { return s < boundary; }
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

// The counts one worker adds up (common/worker_slots.h): one slot per
// worker of the fused job's pool, which every map and reduce function of
// the job runs on. A function takes its worker's slot once per call.
struct CounterSlot {
  uint64_t shared_token_candidates = 0;
  uint64_t similar_token_candidates = 0;
  uint64_t distinct_candidates = 0;
  uint64_t length_filtered = 0;
  uint64_t bag_filtered = 0;
  uint64_t histogram_filtered = 0;
  uint64_t verified_candidates = 0;
  uint64_t verify_work_units = 0;

  CounterSlot& operator+=(const CounterSlot& other) {
    shared_token_candidates += other.shared_token_candidates;
    similar_token_candidates += other.similar_token_candidates;
    distinct_candidates += other.distinct_candidates;
    length_filtered += other.length_filtered;
    bag_filtered += other.bag_filtered;
    histogram_filtered += other.histogram_filtered;
    verified_candidates += other.verified_candidates;
    verify_work_units += other.verify_work_units;
    return *this;
  }
};

// Histogram filter + verify one distinct candidate pair of `corpus`;
// appends to `out` when the pair joins. Lossless filters only
// (Sec. III-E); the length and bag filters already ran where the pair
// was generated (LengthWindow, BagFilter). Both the histogram bound and
// verification compare an integer SLD against the run's budget for
// L(a) + L(b), read from `tables`. `cache` (may be null) is the run's
// corpus-wide token-pair cache; `counts` is the calling worker's slot.
void FilterAndVerify(const Corpus& corpus, const TsjOptions& options,
                     const ThresholdTables& tables, CounterSlot* counts,
                     TokenPairCache* cache, uint32_t a, uint32_t b,
                     std::vector<TsjPair>* out) {
  const size_t la = corpus.aggregate_length(a);
  const size_t lb = corpus.aggregate_length(b);
  const int64_t budget = tables.sld_budget(la + lb);
  if (SldLowerBoundFromHistograms(corpus.length_histogram(a),
                                  corpus.length_histogram(b)) > budget) {
    ++counts->histogram_filtered;
    return;
  }
  ++counts->verified_candidates;
  // Final verification (Sec. III-F) through the budget-aware SLD engine:
  // the NSLD threshold is an integer SLD budget (tokenized/sld.h), and
  // the bounded path only ever skips work, never changes the decision or
  // the reported NSLD. Both strings live in one interned id space, so the
  // engine reads token texts in place and the corpus-wide cache can
  // short-circuit repeated edges.
  SldVerifyScratch& scratch = VerifyScratch();
  scratch.use_l1_cache = options.enable_l1_verify_cache;
  const BoundedSldResult verdict =
      BoundedSld(corpus, corpus.tokens(a), corpus.tokens(b), budget,
                 options.aligning, &scratch, cache);
  counts->verify_work_units += verdict.work_units;
  if (verdict.within_budget) {
    out->push_back(TsjPair{a, b, NsldFromSld(verdict.sld, la, lb)});
  }
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

// The R x P order of a token group or posting list: its R strings, then
// its P strings, each run sorted by (aggregate length, id) for the length
// window. Returns the length of the R run.
template <typename LengthOf>
size_t SortRunsBySide(std::span<uint32_t> ids, const Sides& sides,
                      const LengthOf& length_of) {
  const size_t num_r = static_cast<size_t>(
      std::partition(ids.begin(), ids.end(),
                     [&sides](uint32_t s) { return sides.IsR(s); }) -
      ids.begin());
  SortByAggregateLength(ids.first(num_r), length_of);
  SortByAggregateLength(ids.subspan(num_r), length_of);
  return num_r;
}

// The Lemma 6 length filter (Sec. III-E.1), applied where candidate pairs
// are generated: a pair can join only if
// NsldLowerBoundFromAggregateLengths(la, lb) <= T. The bound is monotone
// in the longer length (and in the shorter one), so over strings sorted by
// aggregate length the partners one string admits form one contiguous
// range; the generators below walk only that range. Its edge is the
// run's integer table of the longest partner each length admits
// (ThresholdTables::max_partner), which equals the predicate exactly.
struct LengthWindow {
  const ThresholdTables& tables;

  // The longest aggregate length a partner of a length-`l` string may
  // have. A join's T is at least 0, so this is never below `l`.
  size_t MaxPartner(size_t l) const {
    return static_cast<size_t>(tables.max_partner(l));
  }
};

// The bag filter (tokenized/bounds.h), applied by both generators to each
// pair the length window admits, before the pair is emitted: a pair can
// join only if its SldLowerBoundFromCharBags is within the run's SLD
// budget for L(a) + L(b) (ThresholdTables::sld_budget), the budget
// verification uses. The bound never exceeds the exact or the greedy SLD,
// so the filter is lossless. It has no switch: the brute-force
// differentials check that it prunes nothing that joins. This form reads
// both strings from the corpus; the self-join's shared-token walk checks
// its group from a contiguous copy instead (GroupMember).
struct BagFilter {
  const Corpus& corpus;
  const ThresholdTables& tables;

  bool Admits(uint32_t a, uint32_t b) const {
    const size_t la = corpus.aggregate_length(a);
    const size_t lb = corpus.aggregate_length(b);
    return SldLowerBoundFromCharBags(corpus.char_bag(a), corpus.char_bag(b),
                                     la, lb) <= tables.sld_budget(la + lb);
  }
};

// What the bag filter reads of one string of a token group, copied out of
// the corpus so the self-join walk reads its group from one contiguous
// per-worker array in window order instead of by string id.
struct GroupMember {
  CharBag bag{};
  uint32_t bag_size = 0;  // CharBagSize(bag)
  size_t length = 0;      // aggregate length
};

// Calls visit(x, y) for every x of `xs` and y of `ys` whose aggregate
// lengths the window admits, and returns the number of such pairs. Both
// lists are sorted by (aggregate length, id). As x's length grows, both
// ends of its admitted range in `ys` only move right, so two pointers
// find them: `lo` skips the partners too short for x, `hi` stops at the
// first one too long.
template <typename LengthOf, typename Visit>
uint64_t ForEachWindowedCross(std::span<const uint32_t> xs,
                              std::span<const uint32_t> ys,
                              const LengthOf& length_of,
                              const LengthWindow& window, const Visit& visit) {
  uint64_t visited = 0;
  size_t lo = 0;
  size_t hi = 0;
  for (const uint32_t x : xs) {
    const size_t lx = length_of(x);
    while (lo < ys.size() && window.MaxPartner(length_of(ys[lo])) < lx) {
      ++lo;
    }
    hi = std::max(hi, lo);
    const size_t longest = window.MaxPartner(lx);
    while (hi < ys.size() && length_of(ys[hi]) <= longest) ++hi;
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

// The TSJ pipeline of both join forms over one corpus; `sides` says which
// pairs of a token's strings are candidates. Verification probes
// `pair_cache` (may be null). `options` must already be validated.
StatusOr<std::vector<TsjPair>> RunPipeline(const Corpus& corpus,
                                           const Sides& sides,
                                           const TsjOptions& options,
                                           TokenPairCache* pair_cache,
                                           TsjRunInfo* info) {
  TsjRunInfo local_info;
  const double t = options.threshold;
  // One gauge threads through every job of the run (and the candidate
  // vectors between jobs), so TsjRunInfo reports the pipeline-wide peak of
  // shuffle-resident records.
  ShuffleGauge gauge;
  MapReduceOptions mr_options = options.mapreduce;
  mr_options.shuffle_gauge = &gauge;
  // Spill gating: the engine-level budget applies only when the
  // join-level switch is on (the CC_SHUFFLE_SPILL_BUDGET test override
  // is engine-level and bypasses this gate by design).
  if (!options.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  WorkerSlots<CounterSlot> counters(mr_options.effective_workers());
  size_t max_length = 0;
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    max_length = std::max(max_length, corpus.aggregate_length(s));
  }
  const ThresholdTables tables(t, max_length);
  const LengthWindow window{tables};
  const BagFilter bags{corpus, tables};
  auto length_of = [&corpus](uint32_t s) { return corpus.aggregate_length(s); };

  // ---- Token statistics: frequencies and the high-frequency cutoff. ----
  // In an R x P run a token's frequency counts its strings on both sides,
  // so M bounds the size of the reduce group it causes.
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  std::vector<char> surviving(frequency.size(), 0);
  for (size_t token = 0; token < frequency.size(); ++token) {
    if (frequency[token] <= options.max_token_frequency) {
      surviving[token] = 1;
    } else {
      ++local_info.dropped_tokens;
    }
  }
  local_info.shuffle_partitions = mr_options.num_partitions;

  std::vector<uint32_t> string_ids(corpus.size());
  for (uint32_t i = 0; i < corpus.size(); ++i) string_ids[i] = i;

  // Distinct surviving tokens of one string, in first-occurrence order,
  // in time linear in its token count and with no allocation per call: a
  // per-thread array over token ids holds the stamp of the last call that
  // saw each token. Every call takes a fresh stamp, never the string id,
  // so a map task retried after it started emits again the tokens of the
  // strings it had already mapped. A call emits each token once and the
  // shuffle sorts every partition by token, so the order within a call
  // reaches no reducer.
  auto for_each_distinct_token = [&corpus, &surviving](uint32_t s,
                                                       const auto& fn) {
    thread_local std::vector<uint32_t> seen_at;
    thread_local uint32_t stamp = 0;
    if (seen_at.size() < corpus.num_distinct_tokens()) {
      seen_at.resize(corpus.num_distinct_tokens(), 0);
    }
    if (++stamp == 0) {  // wrapped: forget every earlier call
      std::fill(seen_at.begin(), seen_at.end(), 0);
      stamp = 1;
    }
    for (const TokenId token : corpus.tokens(s)) {
      if (seen_at[token] == stamp) continue;
      seen_at[token] = stamp;
      if (surviving[token]) fn(token);
    }
  };

  // ---- Similar-token candidate generation (Sec. III-D). ----------------
  // Runs before the main job so its token pairs can feed the fused
  // pipeline as side inputs; its JobStats are spliced into the pipeline in
  // the documented order (shared-token, massjoin, dedup-verify) below. A
  // failed MassJoin fails the join before the fused job starts.
  // Token postings (token -> strings containing it) expand similar token
  // pairs back into string pairs; only the tokens of a similar pair get
  // one, and each SimilarTokenPair names its two lists in `postings`.
  std::vector<std::vector<uint32_t>> postings;
  std::vector<SimilarTokenPair> token_pair_candidates;
  PipelineStats mass_stats;
  if (options.matching == TokenMatching::kFuzzy) {
    // MassJoin NLD-join over the surviving tokens that can have a partner
    // with a different text. The corpus interns each text once, so a
    // similar pair holds two texts, and a token whose
    // MinNldToDifferentString exceeds T has no partner: at T = 0 no token
    // is left, and MassJoin runs on an empty input. Identical tokens are
    // already covered by the shared-token pass.
    std::vector<std::string> token_texts;
    std::vector<TokenId> token_of_index;
    for (TokenId token = 0; token < surviving.size(); ++token) {
      if (surviving[token] &&
          MinNldToDifferentString(corpus.token_length(token)) <= t) {
        token_texts.push_back(corpus.token_text(token));
        token_of_index.push_back(token);
      }
    }
    MassJoinOptions mass_options;
    mass_options.mapreduce = mr_options;
    StatusOr<std::vector<NldPair>> token_pairs =
        RunMassJoinSelfNld(token_texts, t, mass_options, &mass_stats);
    if (!token_pairs.ok()) {
      // The fused job never runs, so MassJoin's jobs are the pipeline.
      local_info.pipeline = std::move(mass_stats);
      if (info != nullptr) *info = std::move(local_info);
      return token_pairs.status();
    }
    local_info.similar_token_pairs = token_pairs->size();

    constexpr uint32_t kNoPosting = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> posting_of(corpus.num_distinct_tokens(),
                                     kNoPosting);
    auto posting_index = [&](uint32_t index) {
      uint32_t& slot = posting_of[token_of_index[index]];
      if (slot == kNoPosting) {
        slot = static_cast<uint32_t>(postings.size());
        postings.emplace_back();
      }
      return slot;
    };
    token_pair_candidates.reserve(token_pairs->size());
    for (const NldPair& pair : *token_pairs) {
      token_pair_candidates.push_back(
          SimilarTokenPair{posting_index(pair.a), posting_index(pair.b)});
    }
    // Strings are walked in id order, so a string that already holds a
    // token is the last entry of that token's list: no per-string sort.
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      for (const TokenId token : corpus.tokens(s)) {
        if (posting_of[token] == kNoPosting) continue;
        std::vector<uint32_t>& list = postings[posting_of[token]];
        if (list.empty() || list.back() != s) list.push_back(s);
      }
    }
    // Sorted once here, so every expansion walks a length window.
    for (std::vector<uint32_t>& list : postings) {
      if (sides.cross) {
        SortRunsBySide(list, sides, length_of);
      } else {
        SortByAggregateLength(list, length_of);
      }
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
    auto emit_if_candidate = [&](uint32_t x, uint32_t y) {
      if (sides.cross && sides.IsR(x) == sides.IsR(y)) return;
      results.push_back(TsjPair{std::min(x, y), std::max(x, y), 0.0});
    };
    for (size_t i = 0; i < empties.size(); ++i) {
      for (size_t j = i + 1; j < empties.size(); ++j) {
        emit_if_candidate(empties[i], empties[j]);
      }
      for (const uint32_t blank : blanks) {
        emit_if_candidate(empties[i], blank);
      }
    }
  }

  // Expands one similar-token pair into the string-pair candidates the
  // length window and the bag filter admit, through the postings (the
  // dedup/verify stage's map side). In an R x P run the pair (x, y)
  // crosses the R strings of x's posting list with the P strings of y's,
  // and the R strings of y's with the P strings of x's.
  auto expand_token_pair = [&](const SimilarTokenPair& cand,
                               const auto& emit) {
    const std::vector<uint32_t>& xs = postings[cand.a];
    const std::vector<uint32_t>& ys = postings[cand.b];
    uint64_t crossed = 0;
    uint64_t admitted = 0;
    uint64_t emitted = 0;
    uint64_t bag_skipped = 0;
    auto walk = [&](std::span<const uint32_t> from,
                    std::span<const uint32_t> to) {
      crossed += static_cast<uint64_t>(from.size()) * to.size();
      admitted += ForEachWindowedCross(
          from, to, length_of, window, [&](uint32_t s1, uint32_t s2) {
            if (s1 == s2) return;
            if (!bags.Admits(s1, s2)) {
              ++bag_skipped;
              return;
            }
            emit(std::min(s1, s2), std::max(s1, s2));
            ++emitted;
          });
    };
    if (sides.cross) {
      auto is_r = [&sides](uint32_t s) { return sides.IsR(s); };
      const size_t xr = static_cast<size_t>(
          std::partition_point(xs.begin(), xs.end(), is_r) - xs.begin());
      const size_t yr = static_cast<size_t>(
          std::partition_point(ys.begin(), ys.end(), is_r) - ys.begin());
      const std::span<const uint32_t> x_span(xs);
      const std::span<const uint32_t> y_span(ys);
      walk(x_span.first(xr), y_span.subspan(yr));
      walk(y_span.first(yr), x_span.subspan(xr));
    } else {
      walk(xs, ys);
    }
    CounterSlot& counts = counters.Local();
    counts.similar_token_candidates += emitted;
    counts.length_filtered += crossed - admitted;
    counts.bag_filtered += bag_skipped;
  };

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
  // Emits the candidate pairs of one token's strings that the length
  // window and the bag filter admit, straight into the dedup shuffle
  // (Sec. III-C's reduce, fused with Job 2's map). A self-join walks the
  // unordered pairs: sorted by (aggregate length, id), each string's
  // partner scan stops at its first partner too long for it. It reads the
  // group from a per-worker contiguous copy of its members' lengths and
  // bags in that order, so each pair costs one budget-table read and one
  // 32-byte L1 distance. An R x P run crosses the group's R run with its
  // P run.
  auto for_each_shared_pair = [&](std::span<uint32_t> strings,
                                  const auto& emit) {
    uint64_t pairs = 0;
    uint64_t admitted = 0;
    uint64_t emitted = 0;
    if (sides.cross) {
      const size_t num_r = SortRunsBySide(strings, sides, length_of);
      const std::span<const uint32_t> rs = strings.first(num_r);
      const std::span<const uint32_t> ps = strings.subspan(num_r);
      pairs = static_cast<uint64_t>(rs.size()) * ps.size();
      admitted = ForEachWindowedCross(
          rs, ps, length_of, window, [&](uint32_t r, uint32_t p) {
            if (!bags.Admits(r, p)) return;
            emit(r, p);
            ++emitted;
          });
    } else {
      SortByAggregateLength(strings, length_of);
      thread_local std::vector<GroupMember> group;
      group.resize(strings.size());
      for (size_t i = 0; i < strings.size(); ++i) {
        GroupMember& member = group[i];
        member.bag = corpus.char_bag(strings[i]);
        member.bag_size = CharBagSize(member.bag);
        member.length = length_of(strings[i]);
      }
      for (size_t i = 0; i < group.size(); ++i) {
        const GroupMember& x = group[i];
        const size_t longest = window.MaxPartner(x.length);
        for (size_t j = i + 1; j < group.size() && group[j].length <= longest;
             ++j) {
          ++admitted;
          const GroupMember& y = group[j];
          if (SldLowerBoundFromCharBags(x.bag, x.bag_size, y.bag, y.bag_size,
                                        x.length, y.length) >
              tables.sld_budget(x.length + y.length)) {
            continue;
          }
          emit(std::min(strings[i], strings[j]),
               std::max(strings[i], strings[j]));
          ++emitted;
        }
      }
      pairs = static_cast<uint64_t>(strings.size()) * (strings.size() - 1) / 2;
    }
    CounterSlot& counts = counters.Local();
    counts.shared_token_candidates += emitted;
    counts.length_filtered += pairs - admitted;
    counts.bag_filtered += admitted - emitted;
  };

  JobStats stage1_stats, stage2_stats;
  gauge.Add(token_pair_candidates.size());  // side-input vector
  std::vector<TsjPair> streamed;
  if (options.dedup == DedupStrategy::kGroupOnBothStrings) {
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
    auto reduce_verify = [&corpus, &options, &tables, &counters, pair_cache](
                             const PairKey& key,
                             std::span<char> /*duplicates*/,
                             std::vector<TsjPair>* out) {
      CounterSlot& counts = counters.Local();
      ++counts.distinct_candidates;
      FilterAndVerify(corpus, options, tables, &counts, pair_cache,
                      key.first, key.second, out);
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                       SimilarTokenPair, PairKey, char,
                                       TsjPair>(
        "tsj-shared-token", "tsj-dedup-verify-both", string_ids, map_tokens,
        reduce_shared, token_pair_candidates, map_expand, reduce_verify,
        mr_options, &stage1_stats, &stage2_stats);
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
    auto reduce_verify = [&corpus, &options, &tables, &counters,
                          pair_cache](const uint32_t& key,
                                      std::span<uint32_t> others,
                                      std::vector<TsjPair>* out) {
      const std::span<uint32_t> distinct = DedupRun(others);
      CounterSlot& counts = counters.Local();
      counts.distinct_candidates += distinct.size();
      SortByAggregateLength(distinct, [&](uint32_t s) {
        return corpus.aggregate_length(s);
      });
      for (uint32_t other : distinct) {
        FilterAndVerify(corpus, options, tables, &counts, pair_cache,
                        std::min(key, other), std::max(key, other), out);
      }
      FlushVerifyCache(pair_cache);  // reduce-group boundary
    };
    streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                       SimilarTokenPair, uint32_t, uint32_t,
                                       TsjPair>(
        "tsj-shared-token", "tsj-dedup-verify-one", string_ids, map_tokens,
        reduce_shared, token_pair_candidates, map_expand, reduce_verify,
        mr_options, &stage1_stats, &stage2_stats);
  }
  gauge.Sub(token_pair_candidates.size());
  results.insert(results.end(), streamed.begin(), streamed.end());
  local_info.pipeline.Add(std::move(stage1_stats));
  local_info.pipeline.Append(mass_stats);
  local_info.pipeline.Add(std::move(stage2_stats));

  const CounterSlot total = counters.Total();
  local_info.shared_token_candidates = total.shared_token_candidates;
  local_info.similar_token_candidates = total.similar_token_candidates;
  local_info.distinct_candidates = total.distinct_candidates;
  local_info.length_filtered = total.length_filtered;
  local_info.bag_filtered = total.bag_filtered;
  local_info.histogram_filtered = total.histogram_filtered;
  local_info.verified_candidates = total.verified_candidates;
  local_info.verify_work_units = total.verify_work_units;
  if (pair_cache != nullptr) {
    // The cache lives for this run only, so its totals are the run's.
    local_info.token_pair_cache_hits = pair_cache->hits();
    local_info.token_pair_cache_misses = pair_cache->misses();
    local_info.token_pair_cache_l1_hits = pair_cache->l1_hits();
    local_info.token_pair_cache_l1_misses = pair_cache->l1_misses();
    local_info.token_pair_cache_flush_batches = pair_cache->flush_batches();
    local_info.token_pair_cache_flushed_records =
        pair_cache->flushed_records();
  }
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

}  // namespace

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::SelfJoin(
    const Corpus& corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  // The run's own token-pair cache; a null cache turns every lookup off.
  TokenPairCache cache;
  return RunPipeline(corpus, Sides{}, options_,
                     options_.enable_token_pair_cache ? &cache : nullptr,
                     info);
}

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::Join(
    const Corpus& r_corpus, const Corpus& p_corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  // One corpus, one token space: R's strings at ids [0, |R|), P's after.
  Corpus joint;
  for (uint32_t s = 0; s < r_corpus.size(); ++s) {
    joint.AddString(r_corpus.Materialize(s));
  }
  for (uint32_t s = 0; s < p_corpus.size(); ++s) {
    joint.AddString(p_corpus.Materialize(s));
  }
  const uint32_t num_r = static_cast<uint32_t>(r_corpus.size());
  StatusOr<std::vector<TsjPair>> pairs =
      RunPipeline(joint, Sides{/*cross=*/true, num_r}, options_,
                  /*pair_cache=*/nullptr, info);
  if (pairs.ok()) {
    for (TsjPair& pair : *pairs) pair.b -= num_r;
  }
  return pairs;
}

}  // namespace tsj
