// Lower bounds on SLD / NSLD used by TSJ's candidate filters (Sec. III-E).
//
// Three filters are supported:
//  * Length filter (Lemma 6): from the aggregate token lengths alone,
//    NSLD(x, y) >= 1 - L(x)/L(y) for L(x) <= L(y).
//  * Histogram filter (Sec. III-E.2): from the token-length histograms.
//    For any token pair LD(a, b) >= ||a| - |b||, so the minimum-weight
//    matching of the two *length* multisets (padded with zero-length entries)
//    lower-bounds the minimum-weight matching of the true token bigraph,
//    i.e. lower-bounds SLD. The optimal matching of two length multisets
//    under |a - b| cost pairs them in sorted order (no-crossing exchange
//    argument), so the bound is computable in O(k log k).
//    The paper defers its exact histogram-pruning algorithm to an extended
//    version; this is a provably correct instance of the same idea. It can
//    only prune true negatives because the bound never exceeds SLD
//    (HistogramBoundTest.NeverExceedsTrueSldOnRandomSamples pins that).
//  * Bag filter (not in the paper): from the character bags (CharBag,
//    tokenized/tokenized_string.h). With X and Y the multisets of all
//    characters of x and y, SLD(x, y) >= max(|X \ Y|, |Y \ X|). An edit
//    operation removes at most one character from a string's bag and adds
//    at most one, so it shrinks |A \ B| and |B \ A| by at most one each:
//    LD(a, b) >= max(|A \ B|, |B \ A|) for every token pair, an empty
//    padding token included (the bag distance of Bartolini, Ciaccia &
//    Patella, SPIRE 2002). Multiset difference is subadditive, so summing
//    over the optimal token matching gives the bound. The bound is never
//    below ||X| - |Y|| = |L(x) - L(y)|, so it dominates Lemma 6, and greedy
//    aligning costs at least SLD, so it is safe there too. TSJ applies it
//    where candidate pairs are generated (tsj/tsj.h); CharBagBoundTest
//    pins both inequalities.
//    Both differences come from the bags' L1 distance SAD = sum |X_i - Y_i|
//    and their sizes S_x, S_y (the sums of their buckets):
//    |X \ Y| = (SAD + S_x - S_y) / 2 and |Y \ X| = (SAD - S_x + S_y) / 2,
//    bucket for bucket, so the identity holds on bucketed and saturated
//    bags alike. The 32-byte L1 distance is one loop the compiler turns
//    into `psadbw`, and a caller that checks one bag against many passes
//    the sizes in.
//
// A join compares these bounds against its threshold T through integer
// tables (ThresholdTables), built once per join from the floating-point
// predicates they replace: the Lemma 6 window as the longest partner
// length each aggregate length admits, and the SLD budget of each sum
// L(x) + L(y). A filter then tests  bound <= budget  with no division.

#ifndef TSJ_TOKENIZED_BOUNDS_H_
#define TSJ_TOKENIZED_BOUNDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "tokenized/tokenized_string.h"

namespace tsj {

/// Lemma 6 lower bound on NSLD given the two aggregate token lengths
/// (order-insensitive): 1 - min(L)/max(L).
double NsldLowerBoundFromAggregateLengths(size_t len_x, size_t len_y);

/// Lemma 6 upper bound on NSLD *as stated in the paper*: 2 / (min/max + 2).
///
/// CAUTION — paper erratum: unlike the NLD case (Lemma 3), this upper bound
/// does not hold for all tokenized strings. The Lemma 6 proof assumes
/// SLD <= L(y), but SLD can exceed L(y) when token counts differ, because
/// set-level edits cannot merge tokens: x = {"aaa"},
/// y = {"b","b","b","b","b","b"} has SLD = 8 > L(y) = 6 and
/// NSLD = 16/17 > 2/(1/2+2) = 0.8. TSJ only ever prunes with the *lower*
/// bound, which is sound, so the join is unaffected; this function is
/// provided for completeness and documented fidelity to the paper.
/// AggregateLengthBoundsTest.Lemma6UpperBoundErratumCounterexample pins
/// the counterexample.
double NsldUpperBoundFromAggregateLengths(size_t len_x, size_t len_y);

/// Lower bound on SLD(x, y) from the sorted token-length histograms of the
/// two strings (as produced by SortedTokenLengths). Never exceeds the true
/// SLD.
int64_t SldLowerBoundFromHistograms(const std::vector<uint32_t>& lengths_x,
                                    const std::vector<uint32_t>& lengths_y);

/// The number of characters a bag counts, the sum of its buckets: L(x)
/// unless a bucket saturated.
uint32_t CharBagSize(const CharBag& bag);

/// Lower bound on SLD(x, y) from the character bags, their sizes
/// (CharBagSize) and the aggregate lengths of the two strings:
/// max(|X \ Y|, |Y \ X|) over the bags, raised where saturation lost
/// counts by |X \ Y| - |Y \ X| = L(x) - L(y). Never exceeds the true SLD
/// (or the greedy-aligning cost), and never falls below |L(x) - L(y)|.
/// Inline so that a caller's pair loop keeps the L1-distance loop
/// vectorized in place.
inline int64_t SldLowerBoundFromCharBags(const CharBag& bag_x,
                                         uint32_t size_x,
                                         const CharBag& bag_y,
                                         uint32_t size_y, size_t len_x,
                                         size_t len_y) {
  uint32_t sad = 0;
  for (size_t i = 0; i < kCharBagBuckets; ++i) {
    sad += static_cast<uint32_t>(std::abs(static_cast<int32_t>(bag_x[i]) -
                                          static_cast<int32_t>(bag_y[i])));
  }
  // SAD and S_x - S_y have the same parity (each bucket adds |d| and d),
  // so both halves are exact.
  const int64_t size_gap = static_cast<int64_t>(size_x) - size_y;
  const int64_t x_only = (sad + size_gap) / 2;  // |X \ Y|
  const int64_t y_only = (sad - size_gap) / 2;  // |Y \ X|
  // Over the unsaturated bags |X \ Y| - |Y \ X| = L(x) - L(y) exactly, so
  // each side is at least the other side's saturated count plus that
  // difference. Without saturation this changes nothing.
  const int64_t diff =
      static_cast<int64_t>(len_x) - static_cast<int64_t>(len_y);
  return std::max({x_only, y_only, y_only + diff, x_only - diff});
}

/// The bag bound of two strings whose bag sizes the caller does not hold.
int64_t SldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y);

/// A join threshold T's length predicates as integer tables over the
/// aggregate lengths 0..max_length, built once per join from the
/// floating-point predicates they replace; tests/tokenized_bounds_test.cc
/// pins both equivalences at every length up to 300.
///  * max_partner(l): the largest L(y) in [l, max_length] with
///    NsldLowerBoundFromAggregateLengths(l, L(y)) <= T, or l - 1 when not
///    even L(y) = l is admitted (T < 0). The bound grows with the longer
///    length and falls with the shorter one, so for
///    L(x) <= L(y) <= max_length,
///    L(y) <= max_partner(L(x))  <=>  the Lemma 6 bound is within T.
///  * sld_budget(L(x) + L(y)): SldBudgetFromThreshold(T, L(x), L(y)),
///    which depends only on the sum, so for every s >= 0
///    s <= sld_budget(L(x) + L(y))  <=>  NsldFromSld(s, L(x), L(y)) <= T.
/// max_length + 1 and 2 * max_length + 1 entries, built in O(max_length).
class ThresholdTables {
 public:
  ThresholdTables(double threshold, size_t max_length);

  int64_t max_partner(size_t length) const { return max_partner_[length]; }
  int64_t sld_budget(size_t length_sum) const {
    return sld_budget_[length_sum];
  }

 private:
  std::vector<int64_t> max_partner_;
  std::vector<int64_t> sld_budget_;
};

}  // namespace tsj

#endif  // TSJ_TOKENIZED_BOUNDS_H_
