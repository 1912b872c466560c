#include "massjoin/mass_join.h"

#include <algorithm>
#include <limits>
#include <span>
#include <tuple>
#include <utility>

#include "distance/myers.h"
#include "distance/normalized_levenshtein.h"
#include "massjoin/partition.h"

namespace tsj {

namespace {

// Key of the signature space: (longer length, shorter length, segment
// index, chunk text).
using SignatureKey = std::tuple<uint32_t, uint32_t, uint32_t, std::string>;

// Value: token id plus its role under this signature.
struct RoleValue {
  uint32_t token_id;
  bool is_substring_role;  // false = segment role (shorter side)
};

// A raw candidate pair of token ids, normalized a < b.
using CandidatePair = std::pair<uint32_t, uint32_t>;

}  // namespace

StatusOr<std::vector<NldPair>> RunMassJoinSelfNld(
    const std::vector<std::string>& tokens, double threshold,
    const MassJoinOptions& options, PipelineStats* stats) {
  // A NaN threshold would make the signature length bounds unbounded, and
  // the join would never return.
  if (!(threshold >= 0.0 && threshold < 1.0)) {
    return Status::InvalidArgument("threshold must satisfy 0 <= T < 1");
  }

  // The two jobs run fused on the streaming sorted-shuffle engine
  // (mapreduce.h): the candidate-pairing reduce of the generation stage
  // emits straight into the dedup/verify shuffle, so the candidate-pair
  // vector a two-job plan would materialize between them never exists.
  //
  // ---- Stage 1: signature generation + candidate pairing. ---------------
  // Input records are token ids; the token texts are read-only side data
  // (in a real deployment they ship with the record).
  std::vector<uint32_t> ids(tokens.size());
  for (uint32_t i = 0; i < tokens.size(); ++i) ids[i] = i;

  // A signature keyed by a length no token has never meets a partner, so
  // each role's length loop stops at the input's own length range. Near
  // T = 1 the Lemma 9 bounds alone reach about |token| / (1 - T).
  size_t min_len = std::numeric_limits<size_t>::max(), max_len = 0;
  for (const std::string& token : tokens) {
    min_len = std::min(min_len, token.size());
    max_len = std::max(max_len, token.size());
  }
  auto map_signatures = [&tokens, threshold, min_len, max_len](
                            const uint32_t& id,
                            PartitionedEmitter<SignatureKey, RoleValue>* out) {
    const std::string& text = tokens[id];
    const uint32_t len = static_cast<uint32_t>(text.size());
    // Segment role: this token as the shorter side of a future pair.
    const size_t max_longer =
        std::min(MaxLongerLengthForNld(threshold, len), max_len);
    for (size_t ly = len; ly <= max_longer; ++ly) {
      const uint32_t tau = MaxLdForNld(threshold, ly, /*x_is_shorter=*/true);
      const auto segments = EvenPartition(len, tau + 1);
      for (size_t i = 0; i < segments.size(); ++i) {
        const Segment& seg = segments[i];
        out->Emit(SignatureKey{static_cast<uint32_t>(ly), len,
                               static_cast<uint32_t>(i),
                               text.substr(seg.start, seg.length)},
                  RoleValue{id, /*is_substring_role=*/false});
      }
    }
    // Substring role: this token as the longer side.
    const uint32_t tau = MaxLdForNld(threshold, len, /*x_is_shorter=*/true);
    const size_t min_lx =
        std::max(MinShorterLengthForNld(threshold, len), min_len);
    for (size_t lx = min_lx; lx <= len; ++lx) {
      const auto segments = EvenPartition(lx, tau + 1);
      for (size_t i = 0; i < segments.size(); ++i) {
        const Segment& seg = segments[i];
        const StartRange range =
            SubstringStartRange(len, lx, tau, i, segments[i]);
        // Every start of an empty segment selects the same "" chunk, and
        // the reducer needs each (key, token) only once.
        const int64_t hi =
            seg.length == 0 ? std::min(range.lo, range.hi) : range.hi;
        for (int64_t start = range.lo; start <= hi; ++start) {
          out->Emit(
              SignatureKey{len, static_cast<uint32_t>(lx),
                           static_cast<uint32_t>(i),
                           std::string(ExtractChunk(text, start, seg))},
              RoleValue{id, /*is_substring_role=*/true});
        }
      }
    }
  };

  auto reduce_candidates = [](const SignatureKey& /*key*/,
                              std::span<RoleValue> values,
                              PartitionedEmitter<CandidatePair, char>* out) {
    // Pair every segment-role token with every substring-role token,
    // streaming each candidate into the dedup/verify shuffle.
    for (const RoleValue& seg : values) {
      if (seg.is_substring_role) continue;
      for (const RoleValue& sub : values) {
        if (!sub.is_substring_role) continue;
        if (seg.token_id == sub.token_id) continue;
        out->Emit(CandidatePair{std::min(seg.token_id, sub.token_id),
                                std::max(seg.token_id, sub.token_id)},
                  0);
      }
    }
  };

  // ---- Stage 2: dedup + verify (one contiguous run per distinct pair). --
  // No side input: the fused call gets an empty input list and an
  // explicit no-op mapper (never invoked).
  auto map_side = [](const CandidatePair&,
                     PartitionedEmitter<CandidatePair, char>*) {};
  auto reduce_verify = [&tokens, threshold](const CandidatePair& pair,
                                            std::span<char> /*values*/,
                                            std::vector<NldPair>* out) {
    const std::string& x = tokens[pair.first];
    const std::string& y = tokens[pair.second];
    const uint32_t tau = MaxLdForNld(threshold, std::max(x.size(), y.size()),
                                     /*x_is_shorter=*/true);
    const uint32_t ld = MyersBoundedLevenshtein(x, y, tau);
    if (ld > tau) return;
    const double nld = NldFromLd(ld, x.size(), y.size());
    if (nld > threshold) return;
    out->push_back(NldPair{pair.first, pair.second, ld, nld});
  };

  JobStats generate_stats, verify_stats;
  std::vector<NldPair> results =
      RunFusedMapReduceSorted<uint32_t, SignatureKey, RoleValue,
                              CandidatePair, CandidatePair, char, NldPair>(
          "massjoin-generate", "massjoin-verify", ids, map_signatures,
          reduce_candidates, /*stage2_side_inputs=*/{}, map_side,
          reduce_verify, options.mapreduce, &generate_stats, &verify_stats,
          /*combiner1=*/nullptr,
          // Duplicate candidate discoveries of one token pair collapse at
          // the stage boundary (the verify reducer only needs the key).
          KeepFirstCombiner<CandidatePair, char>());
  PipelineStats local_stats;
  local_stats.Add(std::move(generate_stats));
  local_stats.Add(std::move(verify_stats));
  const Status failure = local_stats.failure();
  if (stats != nullptr) stats->Append(local_stats);
  if (!failure.ok()) return failure;
  return results;
}

}  // namespace tsj
