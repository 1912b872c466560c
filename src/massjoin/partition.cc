#include "massjoin/partition.h"

#include <algorithm>
#include <cassert>

namespace tsj {

std::vector<Segment> EvenPartition(size_t len, size_t num_segments) {
  assert(num_segments > 0);
  std::vector<Segment> segments;
  segments.reserve(num_segments);
  const size_t base = len / num_segments;
  const size_t num_long = len % num_segments;  // this many get base+1
  const size_t num_short = num_segments - num_long;
  uint32_t pos = 0;
  for (size_t i = 0; i < num_segments; ++i) {
    const uint32_t seg_len =
        static_cast<uint32_t>(i < num_short ? base : base + 1);
    segments.push_back(Segment{pos, seg_len});
    pos += seg_len;
  }
  assert(pos == len);
  return segments;
}

StartRange SubstringStartRange(size_t probe_len, size_t indexed_len,
                               uint32_t tau, size_t seg_index,
                               const Segment& seg) {
  assert(probe_len >= indexed_len);
  const int64_t p = seg.start;
  const int64_t delta =
      static_cast<int64_t>(probe_len) - static_cast<int64_t>(indexed_len);
  const int64_t i = static_cast<int64_t>(seg_index);  // 0-based
  const int64_t t = static_cast<int64_t>(tau);
  // Multi-match-aware selection (Pass-Join, Sec. 4.2 of [36]); with the
  // segment index 0-based the window is
  //   lo = max(0,                p - i,     p + delta - (tau - i))
  //   hi = min(probe_len - |seg|, p + i,     p + delta + (tau - i))
  StartRange range;
  range.lo = std::max<int64_t>({0, p - i, p + delta - (t - i)});
  range.hi = std::min<int64_t>(
      {static_cast<int64_t>(probe_len) - static_cast<int64_t>(seg.length),
       p + i, p + delta + (t - i)});
  return range;
}

}  // namespace tsj
