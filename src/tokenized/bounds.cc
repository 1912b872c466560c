#include "tokenized/bounds.h"

#include <algorithm>
#include <cstdlib>

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

int64_t SldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y) {
  // Both inputs are sorted ascending. Conceptually pad the shorter list
  // with zero-length entries; since the lists are sorted, the optimal
  // sorted pairing aligns the padded zeros with the *smallest* entries of
  // the longer list. Implemented without materializing the padding: the
  // first (larger - smaller) entries of the longer list pair with zeros
  // (costing their full length), and the tails pair elementwise.
  std::span<const uint32_t> shorter = lengths_x;
  std::span<const uint32_t> longer = lengths_y;
  if (shorter.size() > longer.size()) std::swap(shorter, longer);
  const size_t pad = longer.size() - shorter.size();
  int64_t bound = 0;
  for (size_t i = 0; i < pad; ++i) bound += longer[i];
  for (size_t i = 0; i < shorter.size(); ++i) {
    const int64_t a = shorter[i];
    const int64_t b = longer[pad + i];
    bound += std::abs(a - b);
  }
  return bound;
}

uint32_t CharBagSize(const CharBag& bag) {
  uint32_t size = 0;
  for (const uint8_t count : bag) size += count;
  return size;
}

int64_t SldLowerBoundFromCharBags(const CharBag& bag_x, const CharBag& bag_y,
                                  size_t len_x, size_t len_y) {
  return SldLowerBoundFromCharBags(bag_x, CharBagSize(bag_x), bag_y,
                                   CharBagSize(bag_y), len_x, len_y);
}

ThresholdTables::ThresholdTables(double threshold, size_t max_length)
    : max_partner_(max_length + 1), sld_budget_(2 * max_length + 1) {
  // max_partner(l) never decreases as l grows (a longer l only lowers
  // every bound 1 - l/L(y)), so one pointer sweeps the partner lengths
  // once; for each l the admitted lengths L(y) >= l are a prefix.
  size_t partner = 0;
  for (size_t length = 0; length <= max_length; ++length) {
    if (NsldLowerBoundFromAggregateLengths(length, length) > threshold) {
      max_partner_[length] = static_cast<int64_t>(length) - 1;
      continue;
    }
    partner = std::max(partner, length);
    while (partner < max_length &&
           NsldLowerBoundFromAggregateLengths(length, partner + 1) <=
               threshold) {
      ++partner;
    }
    max_partner_[length] = static_cast<int64_t>(partner);
  }
  for (size_t sum = 0; sum < sld_budget_.size(); ++sum) {
    sld_budget_[sum] = SldBudgetFromThreshold(threshold, sum, 0);
  }
}

}  // namespace tsj
