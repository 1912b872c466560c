#include "distance/levenshtein.h"

#include <algorithm>
#include <vector>

#include "distance/affix.h"

namespace tsj {

namespace {

using internal::TrimCommonAffixes;

// Per-thread DP rows, reused across calls: the verify loop computes millions
// of token-level distances and must not allocate per call.
struct LevenshteinScratch {
  std::vector<uint32_t> prev;
  std::vector<uint32_t> curr;
};

LevenshteinScratch& Scratch() {
  thread_local LevenshteinScratch scratch;
  return scratch;
}

}  // namespace

uint32_t Levenshtein(std::string_view x, std::string_view y) {
  TrimCommonAffixes(&x, &y);
  if (x.size() > y.size()) std::swap(x, y);  // x is the shorter row.
  const size_t n = x.size();
  const size_t m = y.size();
  if (n == 0) return static_cast<uint32_t>(m);

  // Two-row DP over the shorter string.
  LevenshteinScratch& scratch = Scratch();
  std::vector<uint32_t>& prev = scratch.prev;
  std::vector<uint32_t>& curr = scratch.curr;
  prev.resize(n + 1);
  curr.resize(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = static_cast<uint32_t>(i);
  for (size_t j = 1; j <= m; ++j) {
    curr[0] = static_cast<uint32_t>(j);
    const char yc = y[j - 1];
    for (size_t i = 1; i <= n; ++i) {
      const uint32_t sub = prev[i - 1] + (x[i - 1] == yc ? 0 : 1);
      const uint32_t del = prev[i] + 1;
      const uint32_t ins = curr[i - 1] + 1;
      curr[i] = std::min({sub, del, ins});
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

}  // namespace tsj
