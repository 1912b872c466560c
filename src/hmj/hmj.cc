#include "hmj/hmj.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/worker_slots.h"
#include "tokenized/sld.h"

namespace tsj {

namespace {

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

// The counts one worker adds up (common/worker_slots.h): one slot per
// worker of the partition-join job's pool, which runs every distance.
struct HmjCounts {
  uint64_t distance_computations = 0;
  uint64_t pivot_filtered = 0;
  uint64_t assignments = 0;
  // The part of distance_computations this worker has charged to the
  // shared work-limit total; only a run with a work_limit moves it.
  uint64_t charged = 0;

  HmjCounts& operator+=(const HmjCounts& other) {
    distance_computations += other.distance_computations;
    pivot_filtered += other.pivot_filtered;
    assignments += other.assignments;
    return *this;
  }
};

class HmjRunner {
 public:
  HmjRunner(const Corpus& corpus, const HmjOptions& options)
      : corpus_(corpus),
        options_(options),
        counts_(options.mapreduce.effective_workers()) {}

  // The partition-join job's map: assigns record s to the partitions of
  // the top-level pivots, where its home is home at both levels.
  void MapRecord(uint32_t s, std::span<const uint32_t> pivots,
                 PartitionedEmitter<uint32_t, Member>* out) {
    HmjCounts& counts = counts_.Local();
    if (ShouldStop(&counts)) return;
    Assign(&counts, s, pivots, [&](size_t j, double dist, bool is_home) {
      out->Emit(static_cast<uint32_t>(j), Member{s, dist, is_home, is_home});
    });
  }

  // Joins one partition's members, recursively repartitioning when too
  // large; emits verified pairs. A leaf sorts `members` in place.
  void JoinPartition(std::span<Member> members, size_t depth,
                     std::vector<TsjPair>* out) {
    HmjCounts& counts = counts_.Local();
    if (ShouldStop(&counts)) return;
    const bool leaf = members.size() <= options_.max_partition_size ||
                      depth >= options_.max_recursion_depth ||
                      members.size() <= options_.num_subpartitions;
    if (leaf) {
      JoinLeaf(&counts, members, out);
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
    for (const Member& m : members) {
      if (ShouldStop(&counts)) return;
      Assign(&counts, m.id, pivots,
             [&](size_t j, double dist, bool is_home) {
               subpartitions[j].push_back(
                   Member{m.id, dist, m.top_home, is_home});
             });
    }
    for (auto& sub : subpartitions) {
      // No-progress guard: when NSLD values concentrate (the
      // high-dimensional behaviour the paper blames for HMJ's DNF,
      // Sec. V-E), the window filter replicates records into nearly every
      // sub-partition and recursion stops shrinking anything — join such a
      // partition quadratically instead of recursing forever.
      if (sub.size() * 10 >= parent_size * 9) {
        JoinLeaf(&counts, sub, out);
      } else {
        JoinPartition(sub, depth + 1, out);
      }
    }
  }

  // The run's counts; call once the partition-join job is done.
  HmjCounts TotalCounts() const { return counts_.Total(); }

 private:
  // Charges the calling worker's distances since its last call to the
  // work limit and returns true once the run has exceeded it. Called where
  // the run polls: once per map record, repartitioned member and leaf row.
  // Without a work_limit it touches nothing shared.
  bool ShouldStop(HmjCounts* counts) {
    if (options_.work_limit == 0) return false;
    const uint64_t uncharged = counts->distance_computations - counts->charged;
    if (uncharged > 0) {
      counts->charged = counts->distance_computations;
      const uint64_t total =
          charged_.fetch_add(uncharged, std::memory_order_relaxed) +
          uncharged;
      if (total > options_.work_limit) {
        aborted_.store(true, std::memory_order_relaxed);
      }
    }
    return aborted_.load(std::memory_order_relaxed);
  }

  // Computes s's NSLD to every pivot and calls place(j, d_j, is_home) for
  // its home, the nearest pivot, and — per the general window filter of
  // [53] — for every other pivot within d_home + 2T.
  template <typename Place>
  void Assign(HmjCounts* counts, uint32_t s, std::span<const uint32_t> pivots,
              const Place& place) {
    thread_local std::vector<double> dists;
    dists.resize(pivots.size());
    for (size_t j = 0; j < pivots.size(); ++j) {
      dists[j] = Distance(counts, s, pivots[j]);
    }
    const size_t home = static_cast<size_t>(
        std::min_element(dists.begin(), dists.end()) - dists.begin());
    for (size_t j = 0; j < pivots.size(); ++j) {
      const bool is_home = (j == home);
      if (!is_home && dists[j] > dists[home] + 2 * options_.threshold) {
        continue;
      }
      ++counts->assignments;
      place(j, dists[j], is_home);
    }
  }

  // Exact NSLD(a, b) for partitioning. The token-id engine runs at budget
  // L(a) + L(b), which SLD never exceeds, so the bound never binds and the
  // result is the exact SLD (tokenized/sld.h, invariant 2).
  double Distance(HmjCounts* counts, uint32_t a, uint32_t b) {
    ++counts->distance_computations;
    const size_t la = corpus_.aggregate_length(a);
    const size_t lb = corpus_.aggregate_length(b);
    const BoundedSldResult sld =
        BoundedSld(corpus_, corpus_.tokens(a), corpus_.tokens(b),
                   static_cast<int64_t>(la + lb), TokenAligning::kExact);
    return NsldFromSld(sld.sld, la, lb);
  }

  // Budget-bounded leaf verification: partitioning needs exact distance
  // values, so Distance above runs at a budget that never binds, but the
  // final join check only needs a verdict against the threshold, so the
  // NSLD threshold converts to an integer SLD budget and the bounded
  // engine skips the work a doomed pair would waste. Returns true iff
  // NSLD(a, b) <= threshold, with *nsld then holding the exact NSLD —
  // identical to the Distance-based decision and value.
  bool DistanceWithin(HmjCounts* counts, uint32_t a, uint32_t b,
                      double* nsld) {
    ++counts->distance_computations;
    const size_t la = corpus_.aggregate_length(a);
    const size_t lb = corpus_.aggregate_length(b);
    const int64_t budget =
        SldBudgetFromThreshold(options_.threshold, la, lb);
    const BoundedSldResult verdict =
        BoundedSld(corpus_, corpus_.tokens(a), corpus_.tokens(b), budget,
                   TokenAligning::kExact);
    if (!verdict.within_budget) return false;
    *nsld = NsldFromSld(verdict.sld, la, lb);
    return true;
  }

  void JoinLeaf(HmjCounts* counts, std::span<Member> members,
                std::vector<TsjPair>* out) {
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
      if (ShouldStop(counts)) return;
      for (size_t j = i + 1; j < members.size(); ++j) {
        const Member& u = members[i];
        const Member& v = members[j];
        if (u.id == v.id) continue;
        // Symmetry rule ([68]): at least one endpoint must be a top-level
        // home record, and at least one must be home at this level — the
        // pair is then guaranteed to also be discovered nowhere "cheaper".
        if (!(u.top_home || v.top_home)) continue;
        if (!(u.level_home || v.level_home)) continue;
        // Pivot triangle-inequality filter: |d(u,p) - d(v,p)| <= d(u,v).
        if (std::abs(u.dist - v.dist) > options_.threshold + 1e-12) {
          ++counts->pivot_filtered;
          continue;
        }
        double d = 0.0;
        if (DistanceWithin(counts, u.id, v.id, &d)) {
          out->push_back(TsjPair{std::min(u.id, v.id), std::max(u.id, v.id),
                                 d});
        }
      }
    }
  }

  const Corpus& corpus_;
  const HmjOptions& options_;
  WorkerSlots<HmjCounts> counts_;
  // Distances charged to the work limit, and whether they exceeded it.
  std::atomic<uint64_t> charged_{0};
  std::atomic<bool> aborted_{false};
};

}  // namespace

StatusOr<std::vector<TsjPair>> HybridMetricJoiner::SelfJoin(
    const Corpus& corpus, HmjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  HmjRunInfo local_info;
  HmjRunner runner(corpus, options_);

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
  auto map_assign = [&runner, &pivots](
                        const uint32_t& s,
                        PartitionedEmitter<uint32_t, Member>* out) {
    runner.MapRecord(s, pivots, out);
  };
  auto reduce_join = [&runner](const uint32_t& /*partition*/,
                               std::span<Member> members,
                               std::vector<TsjPair>* out) {
    runner.JoinPartition(members, /*depth=*/0, out);
  };
  JobStats join_stats;
  std::vector<TsjPair> raw_pairs =
      RunMapReduceSorted<uint32_t, uint32_t, Member, TsjPair>(
          "hmj-partition-join", all_ids, map_assign, reduce_join,
          options_.mapreduce, &join_stats);
  local_info.pipeline.Add(join_stats);

  // ---- Job 2: dedup (a pair may surface in several partitions). ---------
  using PairKey = std::pair<uint32_t, uint32_t>;
  auto map_pairs = [](const TsjPair& pair,
                      PartitionedEmitter<PairKey, double>* out) {
    out->Emit(PairKey{pair.a, pair.b}, pair.nsld);
  };
  // Every discovery of a pair reaches the reducer, and every copy carries
  // the same deterministic NSLD, so the reducer keeps the first.
  auto reduce_dedup = [](const PairKey& key, std::span<double> values,
                         std::vector<TsjPair>* out) {
    out->push_back(TsjPair{key.first, key.second, values.front()});
  };
  JobStats dedup_stats;
  std::vector<TsjPair> results =
      RunMapReduceSorted<TsjPair, PairKey, double, TsjPair>(
          "hmj-dedup", raw_pairs, map_pairs, reduce_dedup, options_.mapreduce,
          &dedup_stats);
  local_info.pipeline.Add(dedup_stats);

  const HmjCounts total = runner.TotalCounts();
  local_info.distance_computations = total.distance_computations;
  local_info.pivot_filtered = total.pivot_filtered;
  local_info.assignments = total.assignments;
  // When the work limit was exceeded the results are incomplete; they are
  // still returned for inspection, with completed=false marking the DNF.
  local_info.completed = options_.work_limit == 0 ||
                         total.distance_computations <= options_.work_limit;
  // Fail the join on a lossy spill fault or a fatal task error
  // (PipelineStats::failure).
  const Status failure = local_info.pipeline.failure();
  if (info != nullptr) *info = std::move(local_info);
  if (!failure.ok()) return failure;
  return results;
}

}  // namespace tsj
