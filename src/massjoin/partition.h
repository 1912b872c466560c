// Even-partition segmenting and multi-match-aware substring selection from
// Pass-Join (Li, Deng, Wang & Feng [36]), the signature scheme underlying
// TSJ's similar-token candidate generation (Sec. III-D).
//
// Lemma 7: if LD(x, y) <= U, partitioning y into U+1 segments leaves at
// least one segment that is a substring of x — and Pass-Join shows it can
// be found at a *constrained* start position, which is what the selection
// range below encodes. The even-partition scheme (segment lengths differ by
// at most one) minimizes the space of chunk strings.

#ifndef TSJ_MASSJOIN_PARTITION_H_
#define TSJ_MASSJOIN_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tsj {

/// One segment of an even partition: [start, start + length) of the string.
struct Segment {
  uint32_t start = 0;
  uint32_t length = 0;
};

/// Partitions a string of length `len` into exactly `num_segments` segments
/// whose lengths differ by at most one, shorter segments first (the
/// Pass-Join convention). If num_segments > len some segments are empty;
/// Lemma 7 still holds (an untouched empty segment trivially matches).
std::vector<Segment> EvenPartition(size_t len, size_t num_segments);

/// Inclusive range [lo, hi] of candidate substring start positions
/// (0-based); empty when lo > hi.
struct StartRange {
  int64_t lo = 0;
  int64_t hi = -1;
  bool empty() const { return lo > hi; }
};

/// Multi-match-aware substring selection: the start positions in a probe
/// string of length `probe_len` at which segment `seg` — the
/// `seg_index`-th (0-based) of an indexed string of length `indexed_len`
/// partitioned into tau+1 segments — can match, for any pair within edit
/// distance `tau`. Requires probe_len >= indexed_len (the probe is the
/// longer string).
StartRange SubstringStartRange(size_t probe_len, size_t indexed_len,
                               uint32_t tau, size_t seg_index,
                               const Segment& seg);

/// The substring of `probe` selected for segment `seg` at `start`.
inline std::string_view ExtractChunk(std::string_view probe, int64_t start,
                                     const Segment& seg) {
  return probe.substr(static_cast<size_t>(start), seg.length);
}

}  // namespace tsj

#endif  // TSJ_MASSJOIN_PARTITION_H_
