// Normalized Levenshtein Distance (Def. 2, from Yujian & Bo Liu [37]) and
// the threshold-carrying bounds of Lemmas 3, 8, 9 and 10. These bounds are
// what let TSJ translate a tokenized-string NSLD threshold T into plain
// edit-distance bounds on tokens, which MassJoin's signatures exploit.

#ifndef TSJ_DISTANCE_NORMALIZED_LEVENSHTEIN_H_
#define TSJ_DISTANCE_NORMALIZED_LEVENSHTEIN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tsj {

/// NLD(x, y) = 2*LD / (|x| + |y| + LD). Always in [0, 1] (Lemma 2) and a
/// metric (Theorem 1).
double NormalizedLevenshtein(std::string_view x, std::string_view y);

/// NLD value induced by a known edit distance `ld` between strings of
/// lengths `len_x` and `len_y`.
double NldFromLd(uint32_t ld, size_t len_x, size_t len_y);

/// True iff NLD(x, y) <= threshold, verified with the Myers kernel
/// (distance/myers.h) under the Lemma 8 bound (no full DP).
bool NldWithin(std::string_view x, std::string_view y, double threshold);

// ---- Lemma 3: bounds on NLD from the two lengths alone ------------------
// Assuming |y| >= |x|:  1 - |x|/|y|  <=  NLD(x, y)  <=  2 / (|x|/|y| + 2).

/// Lower bound on NLD(x, y) given only lengths (order-insensitive).
double NldLowerBoundFromLengths(size_t len_x, size_t len_y);

/// Upper bound on NLD(x, y) given only lengths (order-insensitive).
double NldUpperBoundFromLengths(size_t len_x, size_t len_y);

// ---- Lemma 8: NLD <= T implies an LD bound -------------------------------
// If |x| <= |y|: LD <= floor(2*T*|y| / (2-T)).
// If |x| >  |y|: LD <= floor(T*|y| / (1-T)).

/// Max edit distance between x and y consistent with NLD <= T, where
/// `len_y` is the length of the *other* string and `x_is_shorter` says
/// whether |x| <= |y|. Requires 0 <= T < 1.
uint32_t MaxLdForNld(double threshold, size_t len_y, bool x_is_shorter);

/// Convenience: Lemma 8 bound from both lengths.
uint32_t MaxLdForNld(double threshold, size_t len_x, size_t len_y);

// ---- Lemma 9: NLD <= T and |x| <= |y| implies ceil((1-T)*|y|) <= |x| -----

/// Minimum length of the shorter string consistent with NLD <= T against a
/// string of length `len_y`.
size_t MinShorterLengthForNld(double threshold, size_t len_y);

/// Maximum length of the longer string consistent with NLD <= T against a
/// shorter string of length `len_x` (inverse of Lemma 9):
/// largest L with ceil((1-T)*L) <= len_x.
size_t MaxLongerLengthForNld(double threshold, size_t len_x);

// ---- The nearest different string: NLD(x, y) >= 1 / (|x| + 1) ----------
// If y != x then LD >= 1 and |y| <= |x| + LD, so
// NLD = 2*LD / (|x| + |y| + LD) >= LD / (|x| + LD) >= 1 / (|x| + 1); one
// insertion reaches it.

/// Smallest NLD between a string of length `len` and any string with a
/// different text: NldFromLd(1, len, len + 1). Computed the way NldFromLd
/// computes every NLD, so no pair with NLD <= T holds a string whose value
/// exceeds T. Such a string can join under T only its own text.
double MinNldToDifferentString(size_t len);

// ---- Lemma 10: NLD > T implies an LD lower bound --------------------------
// If |x| <= |y|: LD > floor(T*|y| / (2-T)).
// If |x| >  |y|: LD > floor(2*T*|y| / (2-T)).

/// Strict lower bound ("LD is greater than the returned value") on the edit
/// distance between two strings *known to be NLD-dissimilar* (NLD > T).
/// Only its test calls it: TSJ's histogram filter bounds SLD from the two
/// token-length histograms alone (SldLowerBoundFromHistograms in
/// tokenized/bounds.h).
uint32_t MinLdForNldExceeding(double threshold, size_t len_y,
                              bool x_is_shorter);

}  // namespace tsj

#endif  // TSJ_DISTANCE_NORMALIZED_LEVENSHTEIN_H_
