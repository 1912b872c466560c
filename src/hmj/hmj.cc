#include "hmj/hmj.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mapreduce/cluster_model.h"
#include "mapreduce/work_units.h"
#include "tokenized/sld.h"
#include "tokenized/token_pair_cache.h"

namespace tsj {

namespace {

// The leaf-verification thread's workspace: shared between DistanceWithin
// and the reduce-group boundary that flushes its L1 cache tier
// (tokenized/sld.h, two-tier probe contract).
SldVerifyScratch& LeafVerifyScratch() {
  thread_local SldVerifyScratch scratch;
  return scratch;
}

// A record assigned to a (sub-)partition.
struct Member {
  uint32_t id = 0;
  // Distance to the pivot of the partition this member currently sits in;
  // used for the triangle-inequality pre-filter at the leaves.
  double dist = 0;
  // Assigned home at the *top* level (the [68] symmetry rule: a pair is
  // only verified when at least one endpoint is top-level home).
  bool top_home = false;
  // Assigned home at the *current* recursion level (guarantees each
  // similar pair is verified in at least one leaf).
  bool level_home = false;
};

// Shared mutable state across the pipeline's concurrent lambdas.
struct WorkState {
  std::atomic<uint64_t> distance_computations{0};
  std::atomic<uint64_t> pivot_filtered{0};
  std::atomic<uint64_t> assignments{0};
  std::atomic<bool> aborted{false};
};

class HmjRunner {
 public:
  HmjRunner(const Corpus& corpus, const HmjOptions& options, WorkState* state)
      : corpus_(corpus), options_(options), state_(state) {
    strings_.reserve(corpus.size());
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      strings_.push_back(corpus.Materialize(s));
    }
  }

  double Distance(uint32_t a, uint32_t b) {
    const uint64_t done =
        state_->distance_computations.fetch_add(1, std::memory_order_relaxed);
    if (options_.work_limit > 0 && done >= options_.work_limit) {
      state_->aborted.store(true, std::memory_order_relaxed);
    }
    AddWorkUnits(SldWorkUnits(corpus_.aggregate_length(a),
                              corpus_.aggregate_length(b),
                              strings_[a].size(), strings_[b].size(),
                              options_.aligning));
    const int64_t sld = Sld(strings_[a], strings_[b], options_.aligning);
    return NsldFromSld(sld, corpus_.aggregate_length(a),
                       corpus_.aggregate_length(b));
  }

  // Budget-bounded leaf verification: partitioning needs full distance
  // values (Distance above), but the final join check only needs a verdict
  // against the threshold, so the NSLD threshold converts to an integer SLD
  // budget and the bounded engine skips the work a doomed pair would waste.
  // Runs on the interned token-id spans (no materialized strings) with the
  // run-wide token-pair cache — leaves of neighbouring partitions repeat
  // the same token pairs constantly. Returns true iff NSLD(a, b) <=
  // threshold, with *nsld then holding the exact NSLD — identical to the
  // Distance-based decision and value.
  bool DistanceWithin(uint32_t a, uint32_t b, double* nsld) {
    const uint64_t done =
        state_->distance_computations.fetch_add(1, std::memory_order_relaxed);
    if (options_.work_limit > 0 && done >= options_.work_limit) {
      state_->aborted.store(true, std::memory_order_relaxed);
    }
    const size_t la = corpus_.aggregate_length(a);
    const size_t lb = corpus_.aggregate_length(b);
    const int64_t budget =
        SldBudgetFromThreshold(options_.threshold, la, lb);
    const BoundedSldResult verdict =
        BoundedSld(corpus_, corpus_.tokens(a), corpus_.tokens(b), budget,
                   options_.aligning, &LeafVerifyScratch(), &pair_cache_);
    AddWorkUnits(verdict.work_units);
    if (!verdict.within_budget) return false;
    *nsld = NsldFromSld(verdict.sld, la, lb);
    return true;
  }

  bool aborted() const {
    return state_->aborted.load(std::memory_order_relaxed);
  }

  // Reduce-group boundary: publishes the thread's L1 statistics and
  // drains its deferred cache upserts into the run-wide shared tier in
  // one shard-grouped batch once enough accumulated.
  void FlushVerifyCache() {
    LeafVerifyScratch().l1.FlushIfBatchReady(&pair_cache_);
  }
  // Partition-task boundary: unconditional drain.
  void DrainVerifyCache() { LeafVerifyScratch().l1.Flush(&pair_cache_); }

  // Joins one partition's members, recursively repartitioning when too
  // large; emits verified pairs.
  void JoinPartition(std::vector<Member> members, size_t depth,
                     std::vector<TsjPair>* out) {
    if (aborted()) return;
    const bool leaf = members.size() <= options_.max_partition_size ||
                      depth >= options_.max_recursion_depth ||
                      members.size() <= options_.num_subpartitions;
    if (leaf) {
      JoinLeaf(std::move(members), out);
      return;
    }
    const size_t parent_size = members.size();
    // Recursive repartitioning with sub-pivots ([68]): evenly spaced
    // members act as sub-pivots (deterministic; spreads over the data).
    const size_t k = options_.num_subpartitions;
    const size_t step = members.size() / k;
    std::vector<uint32_t> pivots(k);
    for (size_t j = 0; j < k; ++j) pivots[j] = members[j * step].id;

    std::vector<std::vector<Member>> subpartitions(k);
    std::vector<double> dists(k);
    for (const Member& m : members) {
      if (aborted()) return;
      for (size_t j = 0; j < k; ++j) dists[j] = Distance(m.id, pivots[j]);
      const size_t home = static_cast<size_t>(
          std::min_element(dists.begin(), dists.end()) - dists.begin());
      for (size_t j = 0; j < k; ++j) {
        const bool is_home = (j == home);
        // General window filter ([53]): replicate into every sub-partition
        // whose pivot is within d_home + 2T.
        if (!is_home && dists[j] > dists[home] + 2 * options_.threshold) {
          continue;
        }
        state_->assignments.fetch_add(1, std::memory_order_relaxed);
        subpartitions[j].push_back(
            Member{m.id, dists[j], m.top_home, is_home});
      }
    }
    for (auto& sub : subpartitions) {
      // No-progress guard: when NSLD values concentrate (the
      // high-dimensional behaviour the paper blames for HMJ's DNF,
      // Sec. V-E), the window filter replicates records into nearly every
      // sub-partition and recursion stops shrinking anything — join such a
      // partition quadratically instead of recursing forever.
      if (sub.size() * 10 >= parent_size * 9) {
        JoinLeaf(std::move(sub), out);
      } else {
        JoinPartition(std::move(sub), depth + 1, out);
      }
    }
  }

 private:
  void JoinLeaf(std::vector<Member> members, std::vector<TsjPair>* out) {
    // Length-sorted batching: pairs scan in aggregate-length order, so
    // consecutive verifications see similarly sized bigraphs and the
    // per-thread scratch stays cache-resident. The pair set is unchanged
    // (all i < j pairs; emitted ids are min/max-normalized and the dedup
    // job is order-insensitive).
    std::sort(members.begin(), members.end(),
              [&](const Member& u, const Member& v) {
                const size_t lu = corpus_.aggregate_length(u.id);
                const size_t lv = corpus_.aggregate_length(v.id);
                if (lu != lv) return lu < lv;
                return u.id < v.id;
              });
    for (size_t i = 0; i < members.size(); ++i) {
      if (aborted()) return;
      for (size_t j = i + 1; j < members.size(); ++j) {
        const Member& u = members[i];
        const Member& v = members[j];
        if (u.id == v.id) continue;
        // Symmetry rule ([68]): at least one endpoint must be a top-level
        // home record, and at least one must be home at this level — the
        // pair is then guaranteed to also be discovered nowhere "cheaper".
        if (!(u.top_home || v.top_home)) continue;
        if (!(u.level_home || v.level_home)) continue;
        AddWorkUnits(1);  // pair scan step
        // Pivot triangle-inequality filter: |d(u,p) - d(v,p)| <= d(u,v).
        if (std::abs(u.dist - v.dist) > options_.threshold + 1e-12) {
          state_->pivot_filtered.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        double d = 0.0;
        if (DistanceWithin(u.id, v.id, &d)) {
          out->push_back(TsjPair{std::min(u.id, v.id), std::max(u.id, v.id),
                                 d});
        }
      }
    }
  }

  const Corpus& corpus_;
  const HmjOptions& options_;
  WorkState* state_;
  std::vector<TokenizedString> strings_;
  // Run-wide memoization of token-pair edge distances for the token-id
  // verification path (thread-safe; leaves run on the pool).
  TokenPairCache pair_cache_;
};

}  // namespace

StatusOr<std::vector<TsjPair>> HybridMetricJoiner::SelfJoin(
    const Corpus& corpus, HmjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  HmjRunInfo local_info;
  WorkState state;
  HmjRunner runner(corpus, options_, &state);

  // ---- Pivot sampling. ---------------------------------------------------
  const size_t n = corpus.size();
  std::vector<uint32_t> all_ids(n);
  std::iota(all_ids.begin(), all_ids.end(), 0u);
  Rng rng(options_.seed);
  rng.Shuffle(&all_ids);
  const size_t k = std::min(options_.num_partitions, std::max<size_t>(n, 1));
  std::vector<uint32_t> pivots(all_ids.begin(),
                               all_ids.begin() + std::min(k, n));
  if (pivots.empty()) {
    if (info != nullptr) *info = std::move(local_info);
    return std::vector<TsjPair>{};
  }

  // ---- Job 1: Voronoi partitioning + per-partition join. ----------------
  // Both jobs run on the streaming sorted-shuffle engine: records scatter
  // into partition buckets at emit time and reduce groups are contiguous
  // key runs (mapreduce.h).
  const double t = options_.threshold;

  // Checkpoint gating, shared by both jobs (same contract as the TSJ
  // gate): strip the engine-level dir unless the join-level switch is
  // on; with the switch on and no caller-supplied fingerprint, derive
  // one from the corpus statistics and join parameters so restarts only
  // restore checkpoints written for this exact input. A work-limited run
  // strips it too: once the limit trips, map tasks return early, and a
  // sealed truncated task would be restored as if it were complete.
  const bool checkpointing =
      options_.enable_checkpointing && options_.work_limit == 0;
  uint64_t ckpt_fp = options_.mapreduce.checkpoint_fingerprint;
  if (checkpointing && ckpt_fp == 0) {
    ckpt_fp = MixCheckpointFingerprint(0, corpus.size());
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, corpus.num_distinct_tokens());
    size_t total_token_occurrences = 0;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      total_token_occurrences += corpus.tokens(s).size();
    }
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, total_token_occurrences);
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, static_cast<uint64_t>(t * 1e9));
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, options_.num_partitions);
    ckpt_fp = MixCheckpointFingerprint(ckpt_fp, options_.seed);
  }
  const auto gate_checkpoint = [&](MapReduceOptions* mr) {
    if (!checkpointing) {
      mr->checkpoint_dir.clear();
    } else if (mr->checkpoint_fingerprint == 0) {
      mr->checkpoint_fingerprint = ckpt_fp;
    }
  };
  auto map_assign = [&runner, &pivots, &state, t](
                        const uint32_t& s,
                        PartitionedEmitter<uint32_t, Member>* out) {
    if (runner.aborted()) return;
    std::vector<double> dists(pivots.size());
    for (size_t j = 0; j < pivots.size(); ++j) {
      dists[j] = runner.Distance(s, pivots[j]);
    }
    const size_t home = static_cast<size_t>(
        std::min_element(dists.begin(), dists.end()) - dists.begin());
    for (size_t j = 0; j < pivots.size(); ++j) {
      const bool is_home = (j == home);
      if (!is_home && dists[j] > dists[home] + 2 * t) continue;
      state.assignments.fetch_add(1, std::memory_order_relaxed);
      out->Emit(static_cast<uint32_t>(j),
                Member{s, dists[j], is_home, is_home});
    }
  };
  auto reduce_join = [&runner](const uint32_t& /*partition*/,
                               std::span<Member> members,
                               std::vector<TsjPair>* out) {
    runner.JoinPartition(
        std::vector<Member>(members.begin(), members.end()), /*depth=*/0,
        out);
    runner.FlushVerifyCache();  // reduce-group boundary
  };
  // Skew-adaptive partitioning for the join job: one reduce key per
  // pivot, near-uniform loads by construction (records split ~evenly
  // across Voronoi cells plus window replicas), so the planner's job is
  // mostly to not exceed the key count.
  MapReduceOptions join_mr = options_.mapreduce;
  if (!options_.enable_shuffle_spill) join_mr.memory_budget_records = 0;
  gate_checkpoint(&join_mr);
  if (options_.adaptive_partitions) {
    join_mr.num_partitions = AdaptivePartitionCount(
        join_mr.effective_workers(), pivots.size(), n,
        std::max<uint64_t>(1, n / pivots.size()), join_mr.num_partitions);
  }
  // Partition-task boundary: fully drain each leaf-verify worker's
  // deferred cache upserts into the run-wide shared tier.
  join_mr.reduce_partition_epilogue = [&runner] {
    runner.DrainVerifyCache();
  };
  JobStats join_stats;
  std::vector<TsjPair> raw_pairs =
      RunMapReduceSorted<uint32_t, uint32_t, Member, TsjPair>(
          "hmj-partition-join", all_ids, map_assign, reduce_join,
          join_mr, &join_stats);
  local_info.pipeline.Add(join_stats);

  // ---- Job 2: dedup (a pair may surface in several partitions). ---------
  using PairKey = std::pair<uint32_t, uint32_t>;
  auto map_pairs = [](const TsjPair& pair,
                      PartitionedEmitter<PairKey, double>* out) {
    out->Emit(PairKey{pair.a, pair.b}, pair.nsld);
  };
  auto reduce_dedup = [](const PairKey& key, std::span<double> values,
                         std::vector<TsjPair>* out) {
    out->push_back(TsjPair{key.first, key.second, values.front()});
  };
  // Duplicate discoveries of one pair collapse map-side (every copy
  // carries the same deterministic NSLD, so keeping the first is exactly
  // what the reducer does with the full run).
  const CombinerFn<PairKey, double> combine_dup =
      KeepFirstCombiner<PairKey, double>();
  // Dedup job: near-uniform pair keys, a couple of records each.
  MapReduceOptions dedup_mr = options_.mapreduce;
  if (!options_.enable_shuffle_spill) dedup_mr.memory_budget_records = 0;
  gate_checkpoint(&dedup_mr);
  if (options_.adaptive_partitions) {
    dedup_mr.num_partitions = AdaptivePartitionCount(
        dedup_mr.effective_workers(), raw_pairs.size(), raw_pairs.size(),
        /*max_key_load=*/2, dedup_mr.num_partitions);
  }
  JobStats dedup_stats;
  std::vector<TsjPair> results =
      RunMapReduceSorted<TsjPair, PairKey, double, TsjPair>(
          "hmj-dedup", raw_pairs, map_pairs, reduce_dedup, dedup_mr,
          &dedup_stats, combine_dup);
  local_info.pipeline.Add(dedup_stats);

  local_info.distance_computations = state.distance_computations;
  local_info.pivot_filtered = state.pivot_filtered;
  local_info.assignments = state.assignments;
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
  // When the work limit was exceeded the results are incomplete; they are
  // still returned for inspection, with completed=false marking the DNF.
  local_info.completed = !state.aborted.load();
  // Lossy spill faults (a failed run read aborted a partition's merge,
  // records may be missing) become the join's error; degraded write
  // faults keep their complete results and stay visible via the per-job
  // JobStats::spill_status entries.
  if (Status s = local_info.pipeline.first_spill_data_loss(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  // A fatal task error aborted a job (outputs incomplete): fail the join
  // with the root cause. Retry-absorbed faults only show in the pipeline
  // task counters (see the fault contract in mapreduce.h).
  if (Status s = local_info.pipeline.first_task_error(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  if (info != nullptr) *info = std::move(local_info);
  return results;
}

}  // namespace tsj
