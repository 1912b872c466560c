// Myers bit-parallel Levenshtein distance (Myers, JACM 1999; the
// edit-distance formulation of Hyyrö 2003).
//
// The dynamic-programming matrix of LD is encoded column-wise as bit
// vectors of the vertical deltas D[i][j] - D[i-1][j] in {-1, 0, +1}; one
// text character then advances a whole 64-row column slice with a dozen
// word operations, so a token of up to 64 characters costs O(|y|) words
// instead of O(|x|*|y|) DP cells. Patterns longer than 64 characters use
// the blocked variant (ceil(|x|/64) words per text character with
// horizontal carries chained between blocks).
//
// Clamp contract of MyersBoundedLevenshtein: the trivial length-difference
// early-out runs first, common affixes are trimmed, the exact distance is
// returned when it is <= bound, and exactly bound + 1 is returned
// otherwise. The bounded run also exits early once the score can no
// longer descend back under the bound in the columns that remain (each
// text column changes the bottom-row score by at most one).
//
// Small caps never reach the bit vectors: after maximal affix trimming
// both cores' first and last characters differ, which decides bound <= 1
// in O(1) — LD <= 1 holds exactly when both cores are single characters —
// so the tiny-cap reject path costs a comparison instead of a column scan.
//
// This is the one bounded-LD kernel: MassJoin's verify reducer, NldWithin
// (distance/normalized_levenshtein.h) and every bigraph edge of the SLD
// verification engine (tokenized/sld.h) run on it. The full DP
// Levenshtein() (distance/levenshtein.h) is its reference:
// tests/differential_test.cc pits the two against a naive DP on
// randomized inputs at every cap.

#ifndef TSJ_DISTANCE_MYERS_H_
#define TSJ_DISTANCE_MYERS_H_

#include <cstdint>
#include <string_view>

namespace tsj {

/// Computes LD(x, y) if it is <= bound, otherwise returns exactly
/// bound + 1 (never the true distance). Runs in O(ceil(min/64) * max)
/// word operations after affix trimming. A bound of at least
/// max(|x|, |y|) never binds, so the call returns the exact distance.
uint32_t MyersBoundedLevenshtein(std::string_view x, std::string_view y,
                                 uint32_t bound);

}  // namespace tsj

#endif  // TSJ_DISTANCE_MYERS_H_
