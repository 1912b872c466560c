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

#ifndef TSJ_TOKENIZED_BOUNDS_H_
#define TSJ_TOKENIZED_BOUNDS_H_

#include <cstddef>
#include <cstdint>
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

/// Lower bound on NSLD from the histograms plus aggregate lengths.
/// NSLD is monotone in SLD for fixed lengths, so plugging the SLD lower
/// bound into Def. 4 yields a valid NSLD lower bound.
double NsldLowerBoundFromHistograms(const std::vector<uint32_t>& lengths_x,
                                    const std::vector<uint32_t>& lengths_y);

/// Lower bound on SLD(x, y) from the character bags and aggregate lengths
/// of the two strings: max(|X \ Y|, |Y \ X|) over the bags, raised where
/// saturation lost counts by |X \ Y| - |Y \ X| = L(x) - L(y). Never
/// exceeds the true SLD (or the greedy-aligning cost), and never falls
/// below |L(x) - L(y)|.
int64_t SldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y);

/// NsldFromSld of SldLowerBoundFromCharBags: a pair can join at threshold T
/// only if this is <= T. It is the predicate SldBudgetFromThreshold is
/// fixed against, so it admits exactly the pairs whose bound is within the
/// SLD budget.
double NsldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y);

}  // namespace tsj

#endif  // TSJ_TOKENIZED_BOUNDS_H_
