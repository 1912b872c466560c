#include "distance/myers.h"

#include <algorithm>
#include <vector>

#include "distance/affix.h"

namespace tsj {

namespace {

// Per-thread state, reused across calls. The 256-entry single-word Peq
// table is kept all-zero between calls (each call clears exactly the
// pattern characters it set), so preparing a pattern costs O(|pattern|)
// instead of O(256).
struct MyersScratch {
  uint64_t peq[256] = {};
  std::vector<uint64_t> peq_blocks;  // blocked variant: [char * blocks + k]
  std::vector<uint64_t> vp, vn;
};

MyersScratch& Scratch() {
  thread_local MyersScratch scratch;
  return scratch;
}

// Bottom-row score of the bit-parallel DP for pattern x (1..64 chars,
// already the shorter string) against text y, with the standard vertical
// delta encoding: VP/VN hold D[i][j] - D[i-1][j] == +1 / == -1. Exits
// with any value > bound once the score provably cannot return to <=
// bound in the remaining columns. Bits above |x| - 1 are never read:
// carries and shifts only propagate information upward, so the words can
// stay unmasked.
uint32_t MyersCore64(std::string_view x, std::string_view y, uint64_t bound) {
  const size_t n = x.size();
  const size_t m = y.size();
  // The table is all-zero on entry (every exit path below re-clears the
  // bits it set), so the pattern loads with a single |= pass.
  uint64_t* peq = Scratch().peq;
  for (size_t i = 0; i < n; ++i) {
    peq[static_cast<unsigned char>(x[i])] |= uint64_t{1} << i;
  }
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint32_t score = static_cast<uint32_t>(n);
  const uint64_t top = uint64_t{1} << (n - 1);
  for (size_t j = 0; j < m; ++j) {
    const uint64_t eq = peq[static_cast<unsigned char>(y[j])];
    const uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = vp & d0;
    score += (hp & top) ? 1 : 0;
    score -= (hn & top) ? 1 : 0;
    hp = (hp << 1) | 1;  // the shifted-in 1 encodes D[0][j] = j
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
    // Each remaining column moves the bottom-row score by at most one, so
    // the final score is at least score - (m - 1 - j).
    if (static_cast<uint64_t>(score) > bound + (m - 1 - j)) {
      score = static_cast<uint32_t>(std::min<uint64_t>(score, bound + 1));
      break;
    }
  }
  for (const char c : x) peq[static_cast<unsigned char>(c)] = 0;
  return score;
}

// Blocked variant for patterns longer than 64 characters (Hyyrö 2003):
// ceil(n/64) vertical-delta words per column, with the horizontal delta
// at each block boundary (+1/0/-1) chained through `hin`. The score is
// tracked at the true bottom row, bit (n-1) % 64 of the last block.
uint32_t MyersCoreBlocked(std::string_view x, std::string_view y,
                          uint64_t bound) {
  const size_t n = x.size();
  const size_t m = y.size();
  const size_t blocks = (n + 63) / 64;
  MyersScratch& scratch = Scratch();
  scratch.peq_blocks.assign(blocks * 256, 0);
  for (size_t i = 0; i < n; ++i) {
    scratch.peq_blocks[static_cast<unsigned char>(x[i]) * blocks + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  scratch.vp.assign(blocks, ~uint64_t{0});
  scratch.vn.assign(blocks, 0);
  uint32_t score = static_cast<uint32_t>(n);
  const size_t last = blocks - 1;
  const uint64_t top = uint64_t{1} << ((n - 1) % 64);
  for (size_t j = 0; j < m; ++j) {
    const uint64_t* char_peq =
        scratch.peq_blocks.data() +
        static_cast<size_t>(static_cast<unsigned char>(y[j])) * blocks;
    int hin = 1;  // D[0][j] - D[0][j-1] = +1
    for (size_t k = 0; k < blocks; ++k) {
      const uint64_t vp = scratch.vp[k];
      const uint64_t vn = scratch.vn[k];
      uint64_t eq = char_peq[k];
      if (hin < 0) eq |= 1;
      const uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
      uint64_t hp = vn | ~(d0 | vp);
      uint64_t hn = vp & d0;
      if (k == last) {
        score += (hp & top) ? 1 : 0;
        score -= (hn & top) ? 1 : 0;
      }
      int hout = 0;
      if (hp >> 63) hout = 1;
      if (hn >> 63) hout = -1;
      hp <<= 1;
      hn <<= 1;
      if (hin > 0) hp |= 1;
      if (hin < 0) hn |= 1;
      scratch.vp[k] = hn | ~(d0 | hp);
      scratch.vn[k] = hp & d0;
      hin = hout;
    }
    if (static_cast<uint64_t>(score) > bound + (m - 1 - j)) {
      return static_cast<uint32_t>(std::min<uint64_t>(score, bound + 1));
    }
  }
  return score;
}

}  // namespace

uint32_t MyersBoundedLevenshtein(std::string_view x, std::string_view y,
                                 uint32_t bound) {
  // Trivial length-difference early-out before touching any bytes:
  // trimming removes equal counts from both strings, so |len(x) - len(y)|
  // is the same before and after and the check is cheapest first.
  const size_t longer = std::max(x.size(), y.size());
  const size_t shorter = std::min(x.size(), y.size());
  if (longer - shorter > bound) return bound + 1;
  internal::TrimCommonAffixes(&x, &y);
  if (x.size() > y.size()) std::swap(x, y);
  if (x.empty()) return static_cast<uint32_t>(y.size());  // <= bound here
  if (bound == 0) return 1;  // non-empty trimmed cores always differ
  if (bound == 1) {
    // Small-cap cutoff, O(1) after trimming. Maximal affix trimming left
    // two non-empty cores whose first characters differ AND whose last
    // characters differ, so a single edit can only reconcile them when
    // both cores are one character (a substitution): equal-length cores
    // of size >= 2 mismatch in at least two positions, and a one-longer
    // core would need its insertion at the front (prefix mismatch) and at
    // the back (suffix mismatch) simultaneously. This replaces the column
    // scan the bit-parallel core would run.
    return (x.size() == 1 && y.size() == 1) ? 1 : 2;
  }
  const uint32_t score = x.size() <= 64 ? MyersCore64(x, y, bound)
                                         : MyersCoreBlocked(x, y, bound);
  return score > bound ? bound + 1 : score;
}

}  // namespace tsj
