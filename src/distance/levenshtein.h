// Levenshtein distance (Def. 1 / Lemma 1 of the paper): the full
// dynamic program, O(|x|·|y|).
//
// This is the reference LD. The byte-level Sld() oracle weighs its
// bigraph edges with it, and the tests check the Myers kernel
// (distance/myers.h) against it. Every join verifies on that kernel.
//
// The DP strips the common prefix and suffix first (equal ends never
// contribute edits) and keeps its rows in per-thread scratch, so repeated
// calls allocate nothing.

#ifndef TSJ_DISTANCE_LEVENSHTEIN_H_
#define TSJ_DISTANCE_LEVENSHTEIN_H_

#include <cstdint>
#include <string_view>

namespace tsj {

/// Exact Levenshtein distance between x and y (insert/delete/substitute,
/// unit costs).
uint32_t Levenshtein(std::string_view x, std::string_view y);

}  // namespace tsj

#endif  // TSJ_DISTANCE_LEVENSHTEIN_H_
