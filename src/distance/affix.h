// Common-affix trimming shared by the Levenshtein kernels (the reference
// DP in levenshtein.cc, Myers bit-parallel in myers.cc). Any optimal edit
// script maps equal string ends onto each other, so LD is unchanged by
// trimming and every kernel runs only on the differing core.

#ifndef TSJ_DISTANCE_AFFIX_H_
#define TSJ_DISTANCE_AFFIX_H_

#include <algorithm>
#include <string_view>

namespace tsj {
namespace internal {

// Strips the common prefix and suffix of x and y in place. Trims the
// prefix first, so a fully shared string collapses to two empty views.
inline void TrimCommonAffixes(std::string_view* x, std::string_view* y) {
  size_t prefix = 0;
  const size_t shorter = std::min(x->size(), y->size());
  while (prefix < shorter && (*x)[prefix] == (*y)[prefix]) ++prefix;
  x->remove_prefix(prefix);
  y->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t core = std::min(x->size(), y->size());
  while (suffix < core &&
         (*x)[x->size() - 1 - suffix] == (*y)[y->size() - 1 - suffix]) {
    ++suffix;
  }
  x->remove_suffix(suffix);
  y->remove_suffix(suffix);
}

}  // namespace internal
}  // namespace tsj

#endif  // TSJ_DISTANCE_AFFIX_H_
