#include "tokenized/sld.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "assignment/greedy_matching.h"
#include "assignment/hungarian.h"
#include "distance/levenshtein.h"
#include "distance/myers.h"
#include "tokenized/corpus.h"

namespace tsj {

namespace {

// Builds the k x k token-bigraph cost matrix of Sec. III-F: both token
// multisets are padded with empty tokens to size k = max(T(x), T(y));
// cost(i, j) = LD(x_i, y_j), where LD against the empty token is the token
// length.
std::vector<int64_t> BuildCostMatrix(const TokenizedString& x,
                                     const TokenizedString& y, size_t k) {
  std::vector<int64_t> costs(k * k, 0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      const bool xi_real = i < x.size();
      const bool yj_real = j < y.size();
      int64_t cost;
      if (xi_real && yj_real) {
        cost = Levenshtein(x[i], y[j]);
      } else if (xi_real) {
        cost = static_cast<int64_t>(x[i].size());
      } else if (yj_real) {
        cost = static_cast<int64_t>(y[j].size());
      } else {
        cost = 0;
      }
      costs[i * k + j] = cost;
    }
  }
  return costs;
}

SldVerifyScratch& ThreadVerifyScratch() {
  thread_local SldVerifyScratch scratch;
  return scratch;
}

// One side of the token bigraph: a corpus's token-id span, read in place.
// Token texts are string_views into the corpus, and two positions hold the
// same token iff they hold the same id (interning).
struct TokenSide {
  const Corpus* corpus;
  std::span<const TokenId> ids;

  size_t size() const { return ids.size(); }
  std::string_view view(size_t i) const { return corpus->token_text(ids[i]); }
  size_t length(size_t i) const { return corpus->token_length(ids[i]); }

  size_t AggregateLength() const {
    size_t total = 0;
    for (const TokenId id : ids) total += corpus->token_length(id);
    return total;
  }
};

// rep[i] = smallest index holding the same token id as position i, so
// matrix rows/entries of duplicate tokens can be copied instead of
// recomputed. Padding positions (i >= ids.size()) all hold the empty token
// and share the first padding index. O(T^2) integer compares, trivial next
// to the kernel.
void ComputeDuplicateReps(std::span<const TokenId> ids, size_t k,
                          std::vector<uint32_t>* rep) {
  rep->resize(k);
  for (size_t i = 0; i < ids.size(); ++i) {
    uint32_t r = static_cast<uint32_t>(i);
    for (size_t prior = 0; prior < i; ++prior) {
      if (ids[prior] == ids[i]) {
        r = static_cast<uint32_t>(prior);
        break;
      }
    }
    (*rep)[i] = r;
  }
  for (size_t i = ids.size(); i < k; ++i) {
    (*rep)[i] = static_cast<uint32_t>(ids.size());
  }
}

// An edge's work in the cost model of SldWorkUnits: the cells a banded
// Levenshtein DP with bound `cap` would fill, never more than the
// len_x*len_y term. The Myers kernel computes the edge; the count keeps
// this model, so TsjRunInfo::verify_work_units does not depend on the
// kernel.
uint64_t BandedLdWorkUnits(size_t len_a, size_t len_b, int64_t cap) {
  const uint64_t shorter = std::min(len_a, len_b);
  const uint64_t longer = std::max(len_a, len_b);
  const uint64_t band =
      std::min<uint64_t>(2 * static_cast<uint64_t>(std::max<int64_t>(cap, 0)) +
                             1,
                         shorter + 1);
  return std::min<uint64_t>(band * longer,
                            static_cast<uint64_t>(len_a) * len_b) +
         1;
}

}  // namespace

int64_t Sld(const TokenizedString& x, const TokenizedString& y,
            TokenAligning aligning) {
  const size_t k = std::max(x.size(), y.size());
  if (k == 0) return 0;
  const std::vector<int64_t> costs = BuildCostMatrix(x, y, k);
  const AssignmentResult result = (aligning == TokenAligning::kExact)
                                      ? SolveAssignment(costs, k)
                                      : SolveAssignmentGreedy(costs, k);
  return result.total_cost;
}

double NsldFromSld(int64_t sld, size_t len_x, size_t len_y) {
  if (sld == 0) return 0.0;
  return 2.0 * static_cast<double>(sld) /
         static_cast<double>(len_x + len_y + static_cast<size_t>(sld));
}

double Nsld(const TokenizedString& x, const TokenizedString& y,
            TokenAligning aligning) {
  return NsldFromSld(Sld(x, y, aligning), AggregateLength(x),
                     AggregateLength(y));
}

int64_t SldBudgetFromThreshold(double threshold, size_t len_x, size_t len_y) {
  if (threshold < 0.0) return -1;
  // SLD never exceeds L(x) + L(y) (delete every token of x, add every token
  // of y), so `total` acts as the unbounded budget.
  const int64_t total = static_cast<int64_t>(len_x + len_y);
  if (threshold >= 1.0) return total;
  const double raw =
      threshold * static_cast<double>(len_x + len_y) / (2.0 - threshold);
  int64_t budget = static_cast<int64_t>(std::floor(raw));
  budget = std::max<int64_t>(0, std::min(budget, total));
  // FP-proof the floor against the exact predicate the verify stage uses:
  // NsldFromSld is monotone in sld, so nudge to the true boundary
  // max{s : NsldFromSld(s) <= threshold}.
  while (budget > 0 && NsldFromSld(budget, len_x, len_y) > threshold) {
    --budget;
  }
  while (budget < total &&
         NsldFromSld(budget + 1, len_x, len_y) <= threshold) {
    ++budget;
  }
  return budget;
}

BoundedSldResult BoundedSld(const Corpus& corpus,
                            std::span<const TokenId> x_ids,
                            std::span<const TokenId> y_ids, int64_t budget,
                            TokenAligning aligning, SldVerifyScratch* scratch,
                            std::nullptr_t) {
  const TokenSide x{&corpus, x_ids};
  const TokenSide y{&corpus, y_ids};
  BoundedSldResult result;
  result.work_units = 1;
  if (budget < 0) {
    result.sld = budget + 1;
    result.within_budget = false;
    return result;
  }
  const size_t kx = x.size();
  const size_t ky = y.size();
  const size_t k = std::max(kx, ky);
  if (k == 0) return result;  // SLD = 0, within any budget >= 0.
  if (scratch == nullptr) scratch = &ThreadVerifyScratch();

  // SLD never exceeds L(x) + L(y); clamping an oversized caller budget to
  // that ceiling changes no decision and keeps cap + 1 arithmetic safe.
  const uint64_t lx = static_cast<uint64_t>(x.AggregateLength());
  const uint64_t ly = static_cast<uint64_t>(y.AggregateLength());
  budget = std::min(budget, static_cast<int64_t>(lx + ly));

  // Per-row budget caps. For the exact aligning, row i's edges can be
  // clamped at cap_i + 1 with cap_i = budget - sum of the row minima of
  // rows < i: a matching using a costlier edge pays at least that edge plus
  // one edge per earlier row, so it provably exceeds the budget. For the
  // greedy aligning the cap stays uniform at `budget` — the uniform clamp
  // preserves the greedy selection order (clamped edges, at budget + 1,
  // lose to every unclamped edge exactly as their true costs would), which
  // the tighter per-row caps would not.
  const bool tighten = (aligning == TokenAligning::kExact);

  ComputeDuplicateReps(x_ids, k, &scratch->rep_x);
  ComputeDuplicateReps(y_ids, k, &scratch->rep_y);
  result.work_units += 2 * k;

  scratch->costs.resize(k * k);
  int64_t running_lower_bound = 0;  // sum of row minima: lossless SLD bound
  for (size_t i = 0; i < k; ++i) {
    const int64_t cap = tighten ? budget - running_lower_bound : budget;
    int64_t* row = scratch->costs.data() + i * k;
    int64_t row_min = std::numeric_limits<int64_t>::max();
    const uint32_t rep_row = scratch->rep_x[i];
    if (rep_row != i) {
      // Duplicate token (or repeated padding): reuse the memoized row,
      // re-clamped to this row's tighter cap (min(true, cap+1) either way).
      const int64_t* src = scratch->costs.data() + rep_row * k;
      for (size_t j = 0; j < k; ++j) {
        row[j] = std::min(src[j], cap + 1);
        row_min = std::min(row_min, row[j]);
      }
      result.work_units += k;
    } else {
      const bool xi_real = i < kx;
      for (size_t j = 0; j < k; ++j) {
        const uint32_t rep_col = scratch->rep_y[j];
        int64_t cost;
        if (rep_col != j) {
          cost = row[rep_col];  // same row, same cap: no re-clamp needed
          result.work_units += 1;
        } else {
          const bool yj_real = j < ky;
          if (xi_real && yj_real) {
            if (x_ids[i] == y_ids[j]) {
              cost = 0;  // identical tokens: no DP
              result.work_units += 1;
            } else if (cap == 0) {
              // Non-identical tokens have LD >= 1 > cap: clamp without
              // touching the kernel.
              cost = 1;
              result.work_units += 1;
            } else {
              // Myers edge kernel at the effective bound: LD never exceeds
              // the longer token, so a cap beyond that length constrains
              // nothing and the bound saturates there. A result above the
              // bound means LD > cap, which clamps to cap + 1.
              const int64_t longer = static_cast<int64_t>(
                  std::max(x.length(i), y.length(j)));
              const uint32_t bound =
                  static_cast<uint32_t>(std::min(cap, longer));
              const uint32_t ld =
                  MyersBoundedLevenshtein(x.view(i), y.view(j), bound);
              cost = (ld > bound) ? cap + 1 : static_cast<int64_t>(ld);
              // Work accounting stays in banded-DP cell units (the
              // calibrated cost model of SldWorkUnits).
              result.work_units +=
                  BandedLdWorkUnits(x.length(i), y.length(j), bound);
            }
          } else if (xi_real) {
            cost = std::min(static_cast<int64_t>(x.length(i)), cap + 1);
            result.work_units += 1;
          } else if (yj_real) {
            cost = std::min(static_cast<int64_t>(y.length(j)), cap + 1);
            result.work_units += 1;
          } else {
            cost = 0;
            result.work_units += 1;
          }
        }
        row[j] = cost;
        row_min = std::min(row_min, cost);
      }
    }
    running_lower_bound += row_min;
    if (running_lower_bound > budget) {
      result.sld = running_lower_bound;
      result.within_budget = false;
      result.work_units = std::min(
          result.work_units, SldWorkUnits(lx, ly, kx, ky, aligning));
      return result;
    }
  }

  if (aligning == TokenAligning::kExact) {
    const BoundedAssignmentResult solved =
        SolveAssignmentBounded(scratch->costs, k, budget, &scratch->hungarian);
    result.sld = solved.total_cost;
    result.within_budget = solved.within_budget;
    result.work_units +=
        static_cast<uint64_t>(solved.rows_completed) * 3 * k * k;
  } else {
    const BoundedAssignmentResult solved =
        SolveAssignmentGreedyBounded(scratch->costs, k, budget,
                                     &scratch->greedy);
    result.sld = solved.total_cost;
    result.within_budget = solved.within_budget;
    result.work_units += static_cast<uint64_t>(solved.rows_completed) * 2 * k;
  }
  // The bounded path only skips work, so its reported units never exceed
  // the unbounded cost model (the per-entry constants can otherwise
  // overshoot on degenerate one-character tokens).
  result.work_units =
      std::min(result.work_units, SldWorkUnits(lx, ly, kx, ky, aligning));
  return result;
}

uint64_t SldWorkUnits(size_t len_x, size_t len_y, size_t num_tokens_x,
                      size_t num_tokens_y, TokenAligning aligning) {
  const uint64_t k = std::max<uint64_t>(std::max(num_tokens_x, num_tokens_y),
                                        1);
  const uint64_t matrix = static_cast<uint64_t>(len_x) * len_y + k;
  const uint64_t solver =
      (aligning == TokenAligning::kExact) ? 3 * k * k * k : 2 * k * k;
  return matrix + solver;
}

}  // namespace tsj
