#include "tokenized/bounds.h"

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <numeric>

#include "tokenized/sld.h"

namespace tsj {

double NsldLowerBoundFromAggregateLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;
  return 1.0 - static_cast<double>(len_x) / static_cast<double>(len_y);
}

double NsldUpperBoundFromAggregateLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;
  const double ratio = static_cast<double>(len_x) / static_cast<double>(len_y);
  return 2.0 / (ratio + 2.0);
}

int64_t SldLowerBoundFromHistograms(const std::vector<uint32_t>& lengths_x,
                                    const std::vector<uint32_t>& lengths_y) {
  // Both inputs are sorted ascending. Conceptually pad the shorter list
  // with zero-length entries; since the lists are sorted, the optimal
  // sorted pairing aligns the padded zeros with the *smallest* entries of
  // the longer list. Implemented without materializing the padding: the
  // first (larger - smaller) entries of the longer list pair with zeros
  // (costing their full length), and the tails pair elementwise.
  const std::vector<uint32_t>* shorter = &lengths_x;
  const std::vector<uint32_t>* longer = &lengths_y;
  if (shorter->size() > longer->size()) std::swap(shorter, longer);
  const size_t pad = longer->size() - shorter->size();
  int64_t bound = 0;
  for (size_t i = 0; i < pad; ++i) bound += (*longer)[i];
  for (size_t i = 0; i < shorter->size(); ++i) {
    const int64_t a = (*shorter)[i];
    const int64_t b = (*longer)[pad + i];
    bound += std::abs(a - b);
  }
  return bound;
}

double NsldLowerBoundFromHistograms(const std::vector<uint32_t>& lengths_x,
                                    const std::vector<uint32_t>& lengths_y) {
  const int64_t sld_lb = SldLowerBoundFromHistograms(lengths_x, lengths_y);
  const size_t lx = std::accumulate(lengths_x.begin(), lengths_x.end(),
                                    static_cast<size_t>(0));
  const size_t ly = std::accumulate(lengths_y.begin(), lengths_y.end(),
                                    static_cast<size_t>(0));
  return NsldFromSld(sld_lb, lx, ly);
}

int64_t SldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y) {
  uint32_t x_only = 0;  // |X \ Y| over the saturated buckets
  uint32_t y_only = 0;  // |Y \ X|
  for (size_t i = 0; i < kCharBagBuckets; ++i) {
    const int32_t d = static_cast<int32_t>(bag_x[i]) - bag_y[i];
    x_only += static_cast<uint32_t>(std::max(d, 0));
    y_only += static_cast<uint32_t>(std::max(-d, 0));
  }
  // Over the unsaturated bags |X \ Y| - |Y \ X| = L(x) - L(y) exactly, so
  // each side is at least the other side's saturated count plus that
  // difference. Without saturation this changes nothing.
  const int64_t diff =
      static_cast<int64_t>(len_x) - static_cast<int64_t>(len_y);
  return std::max({static_cast<int64_t>(x_only), static_cast<int64_t>(y_only),
                   y_only + diff, x_only - diff});
}

double NsldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y) {
  return NsldFromSld(SldLowerBoundFromCharBags(bag_x, bag_y, len_x, len_y),
                     len_x, len_y);
}

}  // namespace tsj
