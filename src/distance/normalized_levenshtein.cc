#include "distance/normalized_levenshtein.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "distance/levenshtein.h"

namespace tsj {

namespace {
// Floating-point slack used when flooring rational bounds such as
// 2*T*|y|/(2-T). T and |y| are exact user inputs; the epsilon only protects
// against representation error of the division itself (e.g. 0.3*10/1.0
// evaluating to 2.9999999...).
constexpr double kFloorEps = 1e-9;

uint32_t FloorBound(double v) {
  assert(v >= 0);
  return static_cast<uint32_t>(std::floor(v + kFloorEps));
}
}  // namespace

double NldFromLd(uint32_t ld, size_t len_x, size_t len_y) {
  if (ld == 0) return 0.0;
  return 2.0 * ld / static_cast<double>(len_x + len_y + ld);
}

double NormalizedLevenshtein(std::string_view x, std::string_view y) {
  return NldFromLd(Levenshtein(x, y), x.size(), y.size());
}

bool NldWithin(std::string_view x, std::string_view y, double threshold) {
  if (threshold >= 1.0) return true;
  if (threshold < 0.0) return false;
  const size_t shorter = std::min(x.size(), y.size());
  const size_t longer = std::max(x.size(), y.size());
  // Lemma 9 length filter first: cheap rejection.
  if (shorter < MinShorterLengthForNld(threshold, longer)) return false;
  const uint32_t max_ld = MaxLdForNld(threshold, x.size(), y.size());
  const uint32_t ld = BoundedLevenshtein(x, y, max_ld);
  if (ld > max_ld) return false;
  return NldFromLd(ld, x.size(), y.size()) <= threshold + kFloorEps;
}

double NldLowerBoundFromLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;
  return 1.0 - static_cast<double>(len_x) / static_cast<double>(len_y);
}

double NldUpperBoundFromLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;  // both empty
  const double ratio = static_cast<double>(len_x) / static_cast<double>(len_y);
  return 2.0 / (ratio + 2.0);
}

uint32_t MaxLdForNld(double threshold, size_t len_y, bool x_is_shorter) {
  assert(threshold >= 0.0 && threshold < 1.0);
  const double y = static_cast<double>(len_y);
  if (x_is_shorter) {
    return FloorBound(2.0 * threshold * y / (2.0 - threshold));
  }
  return FloorBound(threshold * y / (1.0 - threshold));
}

uint32_t MaxLdForNld(double threshold, size_t len_x, size_t len_y) {
  // Lemma 8 is stated relative to |y|; apply it with y as the second string.
  return MaxLdForNld(threshold, len_y, /*x_is_shorter=*/len_x <= len_y);
}

size_t MinShorterLengthForNld(double threshold, size_t len_y) {
  assert(threshold >= 0.0 && threshold < 1.0);
  const double v = (1.0 - threshold) * static_cast<double>(len_y);
  return static_cast<size_t>(std::ceil(v - kFloorEps));
}

size_t MaxLongerLengthForNld(double threshold, size_t len_x) {
  assert(threshold >= 0.0 && threshold < 1.0);
  // Largest L such that ceil((1-T)*L) <= len_x, i.e. (1-T)*L <= len_x.
  const double v = static_cast<double>(len_x) / (1.0 - threshold);
  size_t cand = static_cast<size_t>(std::floor(v + kFloorEps));
  // Guard against the epsilon overshooting the exact boundary.
  while (cand > len_x && MinShorterLengthForNld(threshold, cand) > len_x) {
    --cand;
  }
  return std::max(cand, len_x);
}

double MinNldToDifferentString(size_t len) {
  return NldFromLd(1, len, len + 1);
}

uint32_t MinLdForNldExceeding(double threshold, size_t len_y,
                              bool x_is_shorter) {
  assert(threshold >= 0.0 && threshold < 1.0);
  const double y = static_cast<double>(len_y);
  if (x_is_shorter) {
    return FloorBound(threshold * y / (2.0 - threshold));
  }
  return FloorBound(2.0 * threshold * y / (2.0 - threshold));
}

}  // namespace tsj
