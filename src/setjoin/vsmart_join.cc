#include "setjoin/vsmart_join.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>

#include "mapreduce/cluster_model.h"
#include "mapreduce/work_units.h"

namespace tsj {

namespace {

// Per-multiset statistics needed by each measure.
struct SetProfile {
  double cardinality = 0;  // sum of multiplicities
  double norm = 0;         // L2 norm of the count vector
};

struct Posting {
  uint32_t id;
  uint32_t count;
};

struct Partial {
  uint32_t a;
  uint32_t b;
  double contribution;  // min-count (Jaccard/Dice) or product (Cosine)
};

// The full join body; both public entry points are thin wrappers over it
// (RunVsmartSelfJoin adds the fault checks, VsmartSelfJoin the legacy
// stats-only fault surfacing).
std::vector<VsmartPair> VsmartSelfJoinImpl(
    const std::vector<std::vector<uint32_t>>& multisets, double threshold,
    const VsmartOptions& options, PipelineStats* stats) {
  assert(threshold > 0.0 && threshold <= 1.0);

  // Per-set profiles and per-set token counts (the "cardinality" phase of
  // V-SMART, computed map-side here since sets are in memory).
  std::vector<SetProfile> profiles(multisets.size());
  std::vector<std::map<uint32_t, uint32_t>> counts(multisets.size());
  std::unordered_map<uint32_t, uint32_t> frequency;
  for (size_t s = 0; s < multisets.size(); ++s) {
    for (uint32_t token : multisets[s]) ++counts[s][token];
    for (const auto& [token, count] : counts[s]) {
      profiles[s].cardinality += count;
      profiles[s].norm += static_cast<double>(count) * count;
      ++frequency[token];
    }
    profiles[s].norm = std::sqrt(profiles[s].norm);
  }

  // ---- Job 1: joining phase — per-token partial contributions. -----------
  // Both phases run on the streaming sorted-shuffle engine (mapreduce.h).
  // Note the engines are not bit-interchangeable here: job 1's output
  // order (job 2's summation order) differs between the grouping modes,
  // so a similarity within a float ulp of the threshold could flip. The
  // measures themselves are order-insensitive up to FP rounding, and the
  // threshold compare already carries a 1e-12 epsilon.
  std::vector<uint32_t> ids(multisets.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const bool cosine = options.measure == MultisetMeasure::kCosine;
  auto map_postings = [&](const uint32_t& s,
                          PartitionedEmitter<uint32_t, Posting>* out) {
    AddWorkUnits(1 + counts[s].size());
    for (const auto& [token, count] : counts[s]) {
      if (options.max_token_frequency > 0 &&
          frequency[token] > options.max_token_frequency) {
        continue;
      }
      out->Emit(token, Posting{s, count});
    }
  };
  auto reduce_partials = [cosine](const uint32_t& /*token*/,
                                  std::span<Posting> postings,
                                  std::vector<Partial>* out) {
    uint64_t pairs = 0;
    for (size_t i = 0; i < postings.size(); ++i) {
      for (size_t j = i + 1; j < postings.size(); ++j) {
        const Posting& x = postings[i];
        const Posting& y = postings[j];
        const double contribution =
            cosine ? static_cast<double>(x.count) * y.count
                   : static_cast<double>(std::min(x.count, y.count));
        out->push_back(Partial{std::min(x.id, y.id), std::max(x.id, y.id),
                               contribution});
        ++pairs;
      }
    }
    AddWorkUnits(postings.size() + pairs);
  };
  // Skew-adaptive partition planning from the token-frequency profile: a
  // token shared by f multisets costs f postings in and f*(f-1)/2 partial
  // emissions out of its reduce group — the same quadratic hot-key shape
  // as TSJ's shared-token reduce.
  MapReduceOptions join_mr = options.mapreduce;
  if (!options.enable_shuffle_spill) join_mr.memory_budget_records = 0;
  // Checkpoint gating, shared with the similarity phase below (same
  // contract as the TSJ gate): strip the engine-level dir unless the
  // join-level switch is on; derive a zero fingerprint from the multiset
  // statistics, the threshold and the measure.
  uint64_t ckpt_fp = options.mapreduce.checkpoint_fingerprint;
  if (options.enable_checkpointing && ckpt_fp == 0) {
    ckpt_fp = MixCheckpointFingerprint(0, multisets.size());
    uint64_t total_tokens = 0;
    for (const std::vector<uint32_t>& set : multisets) {
      total_tokens += set.size();
    }
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, total_tokens);
    ckpt_fp =
        MixCheckpointFingerprint(ckpt_fp, std::bit_cast<uint64_t>(threshold));
    ckpt_fp = MixCheckpointFingerprint(
        ckpt_fp, static_cast<uint64_t>(options.measure));
  }
  const auto gate_checkpoint = [&](MapReduceOptions* mr) {
    if (!options.enable_checkpointing) {
      mr->checkpoint_dir.clear();
    } else if (mr->checkpoint_fingerprint == 0) {
      mr->checkpoint_fingerprint = ckpt_fp;
    }
  };
  gate_checkpoint(&join_mr);
  if (options.adaptive_partitions) {
    KeyLoadProfile profile;
    for (const auto& [token, f] : frequency) {
      if (options.max_token_frequency > 0 &&
          f > options.max_token_frequency) {
        continue;
      }
      profile.AddQuadraticKey(f);
    }
    join_mr.num_partitions = AdaptivePartitionCount(
        join_mr.effective_workers(), profile, join_mr.num_partitions);
  }
  JobStats join_stats;
  const std::vector<Partial> partials =
      RunMapReduceSorted<uint32_t, uint32_t, Posting, Partial>(
          "vsmart-joining", ids, map_postings, reduce_partials,
          join_mr, &join_stats);
  if (stats != nullptr) stats->Add(join_stats);

  // ---- Job 2: similarity phase — aggregate and threshold. ---------------
  using PairKey = std::pair<uint32_t, uint32_t>;
  auto map_partials = [](const Partial& partial,
                         PartitionedEmitter<PairKey, double>* out) {
    out->Emit(PairKey{partial.a, partial.b}, partial.contribution);
  };
  const MultisetMeasure measure = options.measure;
  auto reduce_similarity = [&profiles, measure, threshold](
                               const PairKey& key,
                               std::span<double> contributions,
                               std::vector<VsmartPair>* out) {
    AddWorkUnits(contributions.size() + 1);
    double overlap = 0;
    for (double c : contributions) overlap += c;
    const SetProfile& pa = profiles[key.first];
    const SetProfile& pb = profiles[key.second];
    double similarity = 0;
    switch (measure) {
      case MultisetMeasure::kJaccard: {
        // sum-min / sum-max with sum-max = |x| + |y| - sum-min.
        const double denom = pa.cardinality + pb.cardinality - overlap;
        similarity = denom <= 0 ? 1.0 : overlap / denom;
        break;
      }
      case MultisetMeasure::kDice:
        similarity = 2.0 * overlap / (pa.cardinality + pb.cardinality);
        break;
      case MultisetMeasure::kCosine:
        similarity = (pa.norm == 0 || pb.norm == 0)
                         ? 0.0
                         : overlap / (pa.norm * pb.norm);
        break;
    }
    if (similarity >= threshold - 1e-12) {
      out->push_back(VsmartPair{key.first, key.second, similarity});
    }
  };
  // Similarity phase: pair keys are near-uniform (one contribution per
  // shared token), so the planner assumes a flat profile bounded by the
  // partial-record count. No combiner here: pre-summing contributions
  // would change floating-point addition order, and the measures are only
  // order-insensitive up to rounding (see the job-1 note above).
  MapReduceOptions similarity_mr = options.mapreduce;
  if (!options.enable_shuffle_spill) similarity_mr.memory_budget_records = 0;
  gate_checkpoint(&similarity_mr);
  if (options.adaptive_partitions) {
    similarity_mr.num_partitions = AdaptivePartitionCount(
        similarity_mr.effective_workers(), partials.size(), partials.size(),
        /*max_key_load=*/1, similarity_mr.num_partitions);
  }
  JobStats similarity_stats;
  std::vector<VsmartPair> results =
      RunMapReduceSorted<Partial, PairKey, double, VsmartPair>(
          "vsmart-similarity", partials, map_partials, reduce_similarity,
          similarity_mr, &similarity_stats);
  if (stats != nullptr) stats->Add(similarity_stats);
  return results;
}

}  // namespace

std::vector<VsmartPair> VsmartSelfJoin(
    const std::vector<std::vector<uint32_t>>& multisets, double threshold,
    const VsmartOptions& options, PipelineStats* stats) {
  return VsmartSelfJoinImpl(multisets, threshold, options, stats);
}

StatusOr<std::vector<VsmartPair>> RunVsmartSelfJoin(
    const std::vector<std::vector<uint32_t>>& multisets, double threshold,
    const VsmartOptions& options, PipelineStats* stats) {
  PipelineStats local_stats;
  std::vector<VsmartPair> results =
      VsmartSelfJoinImpl(multisets, threshold, options, &local_stats);
  const Status data_loss = local_stats.first_spill_data_loss();
  const Status task_error = local_stats.first_task_error();
  if (stats != nullptr) stats->Append(local_stats);
  // Same fault contract as tsj/hmj: lossy spill faults and fatal task
  // errors (outputs may be incomplete) fail the join; degraded write
  // faults and retry-absorbed failures keep their complete results and
  // stay visible through the pipeline stats.
  if (!data_loss.ok()) return data_loss;
  if (!task_error.ok()) return task_error;
  return results;
}

}  // namespace tsj
