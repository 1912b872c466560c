// Setwise Levenshtein Distance (Def. 3) and its normalized form NSLD
// (Def. 4), the paper's core contribution.
//
// SLD(x^t, y^t) is the minimum number of character-level edit operations
// over tokens, with free AddEmptyToken/RemoveEmptyToken set-level edits.
// It equals the minimum-weight perfect matching of the token bigraph after
// padding both sides with empty tokens to equal cardinality, with edge
// weight LD(token_i, token_j) (Sec. III-F). The exact solver uses the
// Hungarian algorithm in O(max(T(x),T(y))^3); the greedy-token-aligning
// approximation (Sec. III-G.5) repeatedly picks the cheapest remaining edge.
//
// Budget-aware verification engine
// --------------------------------
// The join's verify stage only needs a yes/no answer against the NSLD
// threshold, and Def. 4 converts that threshold into an integer SLD budget:
//
//   NSLD(x, y) <= t  <=>  2*sld / (L(x)+L(y)+sld) <= t
//                    <=>  sld <= t * (L(x)+L(y)) / (2 - t)
//
// so  B = floor(t*(L(x)+L(y))/(2-t))  (SldBudgetFromThreshold; the floor is
// FP-proofed against the exact NsldFromSld predicate) and the verification
// becomes "is SLD <= B". BoundedSld threads that budget through every layer:
//
//   * each bigraph edge is computed with BoundedLevenshtein capped at the
//     budget still available to its row, and clamped to cap+1 on overflow —
//     a matching that uses a clamped edge provably costs more than B, so
//     clamping never changes the within-budget decision or, when within,
//     the exact SLD value (see the invariants below);
//   * identical tokens short-circuit to cost 0 without running the DP, and
//     duplicate tokens within either multiset reuse the memoized row/entry;
//   * the running sum of per-row minima is a lossless lower bound on the
//     matching cost; the build aborts as soon as it exceeds B;
//   * the assignment solve itself is budget-bounded (SolveAssignmentBounded
//     / SolveAssignmentGreedyBounded) and stops once its monotone partial
//     cost passes B.
//
// Invariants of the bounded path (relied on by tsj/tsj.cc and hmj/hmj.cc):
//   1. within_budget == (SLD(x, y) <= B) under the chosen aligning — the
//      bounded path may skip work but never flips the join decision;
//   2. when within_budget, BoundedSldResult::sld is the *exact* SLD (resp.
//      the exact greedy-aligning cost), so reported NSLD values are
//      byte-identical to the unbounded path;
//   3. work_units never exceeds the unbounded cost model of SldWorkUnits.
//
// Myers/clamp contract of the edge kernel. Every bigraph edge is computed
// by the Myers bit-parallel kernel (distance/myers.h) with bound
// min(cap_i, longer-token-length): like BoundedLevenshtein, it returns
// the exact LD when it is <= bound and exactly bound + 1 otherwise, so an
// edge value is either exact or a certificate that the true LD exceeds
// the row cap — the clamp value cap_i + 1 then makes any matching through
// that edge provably exceed the budget, exactly as with the banded DP.
// The kernels are interchangeable bit for bit; the randomized
// differential harness (tests/differential_test.cc) pins Myers == banded
// DP == naive DP on every input family and cap.
//
// Token-id verification path. The overload taking std::span<const
// TokenId> verifies directly on a Corpus's interned ids — no
// materialization, no byte copies: token texts are read in place through
// string_views, identical tokens short-circuit on id equality, and
// duplicate detection is integer comparison instead of string
// comparison. Its results (sld, within_budget) are byte-identical to the
// byte path on the materialized multisets. An optional corpus-wide
// TokenPairCache memoizes edge LDs across *candidates*: entries record
// the cap they were computed at, so a cached value is only served when
// it is exact or its certificate is at least as strong as the current
// row cap (see token_pair_cache.h); served values equal what the kernel
// would have computed, keeping the path lossless.
//
// Two-tier probe contract. When a cache is supplied (and
// SldVerifyScratch::use_l1_cache is left on), the engine probes through
// the scratch's private TokenPairL1Cache: L1 first (no locks, no
// atomics), shared shards only on an L1 miss, and freshly computed edges
// install into the L1 with the shared upsert deferred into a batch that
// flushes at most once per kPendingCapacity edges — callers running a
// verify loop should additionally flush at reduce-group boundaries
// (scratch->l1.Flush(cache), as tsj/tsj.cc does) so late entries and the
// L1 statistics reach the shared tier. The probes are cost-model gated
// per tier: edges whose modeled kernel cost is below the price of even
// the lock-free L1 probe recompute outright, and edges below the
// (pricier) shared-shard round-trip probe only the L1. Gating
// and tiering change only *where* a value is found, never the value —
// the path stays lossless, pinned by tests/differential_test.cc with the
// L1 tier on and off.

#ifndef TSJ_TOKENIZED_SLD_H_
#define TSJ_TOKENIZED_SLD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "assignment/greedy_matching.h"
#include "assignment/hungarian.h"
#include "tokenized/token_pair_cache.h"
#include "tokenized/tokenized_string.h"

namespace tsj {

class Corpus;

/// How the token bigraph matching is solved.
enum class TokenAligning {
  /// Exact minimum-weight perfect matching (Hungarian algorithm).
  kExact,
  /// Greedy-token-aligning approximation (Sec. III-G.5): never smaller
  /// than the exact SLD.
  kGreedy,
};

/// SLD(x, y): exact or greedy depending on `aligning`. The byte-level
/// reference path, which allocates its cost matrix and runs the full DP
/// on every token pair: Sld() and Nsld() serve BruteForceNsldSelfJoin,
/// NsldIndex and the tests as the oracle, and no join calls them (TSJ and
/// HMJ run the token-id BoundedSld below).
int64_t Sld(const TokenizedString& x, const TokenizedString& y,
            TokenAligning aligning = TokenAligning::kExact);

/// NSLD value induced by a known SLD and the two aggregate lengths:
/// 2*sld / (L(x) + L(y) + sld). In [0, 1] (Lemma 5).
double NsldFromSld(int64_t sld, size_t len_x, size_t len_y);

/// NSLD(x, y) (Def. 4); a metric when `aligning` is kExact (Theorem 2).
double Nsld(const TokenizedString& x, const TokenizedString& y,
            TokenAligning aligning = TokenAligning::kExact);

/// True iff NSLD(x, y) <= threshold under the chosen aligning. Applies the
/// Lemma 6 length filter, then runs the budget-bounded SLD.
bool NsldWithin(const TokenizedString& x, const TokenizedString& y,
                double threshold,
                TokenAligning aligning = TokenAligning::kExact);

/// The largest integer SLD consistent with NSLD <= threshold for strings
/// of aggregate lengths len_x and len_y: max{s >= 0 : NsldFromSld(s) <=
/// threshold}, i.e. floor(t*(L(x)+L(y))/(2-t)) FP-proofed against the
/// NsldFromSld predicate so that  sld <= budget  <=>  NSLD <= threshold
/// holds exactly. Returns -1 for threshold < 0 (nothing joins) and
/// len_x+len_y for threshold >= 1 (SLD never exceeds L(x)+L(y)).
int64_t SldBudgetFromThreshold(double threshold, size_t len_x, size_t len_y);

/// Reusable workspace for BoundedSld: the bigraph cost matrix, the
/// duplicate-token memoization tables, the Hungarian solver scratch and
/// the worker-private L1 cache tier fronting the shared TokenPairCache
/// (see the file comment's two-tier probe contract) — so the whole verify
/// loop is allocation-free and, on cache probes, lock-free after
/// per-thread warm-up.
struct SldVerifyScratch {
  std::vector<int64_t> costs;
  std::vector<uint32_t> rep_x, rep_y;
  HungarianScratch hungarian;
  GreedyScratch greedy;
  /// Per-worker L1 tier (token_pair_cache.h). Auto-binds to whichever
  /// shared cache BoundedSld is called with; flush it at reduce-group
  /// boundaries. Only used when `use_l1_cache` is on.
  TokenPairL1Cache l1;
  /// Disable to probe the shared shards directly on every gated edge
  /// (the pre-L1 behaviour; bench_ablation measures the difference).
  bool use_l1_cache = true;
};

/// Result of one budget-bounded SLD evaluation.
struct BoundedSldResult {
  /// Exact SLD under the chosen aligning when within_budget; otherwise
  /// some value > budget (typically a partial lower bound).
  int64_t sld = 0;
  /// True iff SLD(x, y) <= budget under the chosen aligning.
  bool within_budget = true;
  /// Deterministic count of the operations actually performed (banded DP
  /// cells, solver rows), in the same units as SldWorkUnits.
  uint64_t work_units = 0;
};

/// Budget-bounded SLD (see the file comment for the derivation and the
/// invariants). `scratch` may be nullptr (a thread-local workspace is
/// used). A negative budget fails immediately.
BoundedSldResult BoundedSld(const TokenizedString& x,
                            const TokenizedString& y, int64_t budget,
                            TokenAligning aligning = TokenAligning::kExact,
                            SldVerifyScratch* scratch = nullptr);

/// Token-id overload: verifies two of `corpus`'s token-id multisets
/// without materializing them (see the file comment). Both spans must
/// hold ids interned by the same `corpus`, and `cache` (optional) must
/// only ever be shared between calls using that corpus. Returns results
/// byte-identical to the byte overload on the materialized multisets.
BoundedSldResult BoundedSld(const Corpus& corpus,
                            std::span<const TokenId> x_ids,
                            std::span<const TokenId> y_ids, int64_t budget,
                            TokenAligning aligning = TokenAligning::kExact,
                            SldVerifyScratch* scratch = nullptr,
                            TokenPairCache* cache = nullptr);

/// Deterministic operation count of one *unbounded* SLD evaluation, the
/// unit of TsjRunInfo::verify_work_units: the L(x)*L(y) DP cells of the
/// bigraph weights plus the assignment-solver steps — 3*k^3 for the
/// Hungarian algorithm, 2*k^2 for the small-k greedy scan, constants
/// calibrated against bench_distance_micro. The budgeted verify path
/// reports the work actually performed through BoundedSldResult::work_units
/// instead (same units, never larger).
uint64_t SldWorkUnits(size_t len_x, size_t len_y, size_t num_tokens_x,
                      size_t num_tokens_y, TokenAligning aligning);

}  // namespace tsj

#endif  // TSJ_TOKENIZED_SLD_H_
