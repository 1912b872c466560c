// Batched one-pattern-vs-many Myers bounded Levenshtein (the batch form
// of distance/myers.h): preprocess a pattern ONCE into its Peq bit-vector
// table, then verify a whole span of candidate texts against it. The
// verify stage lines up many texts per pattern (length-sorted reduce
// groups, one bigraph row vs. a run of counterpart tokens), so the
// per-call pattern preprocessing and the column loop's instruction
// overhead amortize across the batch, and 2-4 texts advance together in
// the SIMD lanes of one Hyyro recurrence.
//
// Contract. For every text, VerifyMany produces exactly
// MyersBoundedLevenshtein(pattern, text, bound): the exact LD when it is
// <= bound and exactly bound + 1 otherwise, including the trivial
// length-difference early-out and the per-column early exit once the
// score provably cannot descend back under the bound. The randomized
// differential harness (tests/differential_test.cc) pins batched ==
// scalar Myers == banded DP == naive DP across input families, caps,
// lane widths and SIMD modes.
//
// Why no affix trimming and no pattern/text swap. The scalar kernel
// trims common affixes and swaps so the shorter string becomes the
// bit-vector pattern — pure optimizations: both sides of the swap
// compute min(LD, bound + 1), and trimming never changes LD. The batch
// kernel deliberately does neither: the Peq table is built from the
// caller's pattern verbatim and is therefore valid against every text in
// the batch, longer or shorter. (A batched wrapper around the scalar
// kernel would not have this property — the internal swap can silently
// turn a *text* into the bit-vector pattern, so a Peq table captured
// from one call may describe the wrong side for the next. That aliasing
// hazard is why the batch kernel owns its preprocessing; the
// mixed longer/shorter-texts unit test in tests/myers_batch_test.cc pins
// it.)
//
// Lane packing. Texts are packed into groups of up to 4 lanes; each
// packed pass runs the single-word (pattern <= 64 chars) recurrence with
// one shared Peq table and per-lane VP/VN/score state, exiting a lane as
// soon as its own early-exit condition fires. Groups narrow at the batch
// tail (3 remaining -> one 4-wide pass with an idle lane, 2 -> 2-wide,
// 1 -> 1-wide scalar pass), so a partial final batch never pads more
// than one pass. Patterns longer than 64 characters share their blocked
// Peq table across the batch and run a per-text scalar blocked core.
//
// Dispatch. Three interchangeable backends compute a packed pass:
//   * portable — plain uint64 lanes, the ground truth, identical
//     behavior on any host;
//   * SSE2 — 2 texts per __m128i pass (x86-64 baseline, always
//     compiled there);
//   * AVX2 — 4 texts per __m256i pass, compiled behind a target
//     attribute and selected only when the host CPU reports AVX2.
// The mode resolves at construction: explicitly (tests sweep all
// backends in-process) or from the CC_VERIFY_SIMD environment toggle
// ("off"/"portable", "sse2", "avx2", "auto"/unset = best available),
// which is how CI pins the portable fallback for a whole test run the
// way CC_SHUFFLE_SPILL_BUDGET forces the spill path. Lane-packing
// geometry (and therefore the lane counters below) is identical across
// backends; only how a packed group is computed changes.
//
// Counters (monotone; callers take deltas): batch_calls() VerifyMany
// invocations, lanes_filled()/lane_slots() texts packed vs. lane
// capacity allocated (the lanes-filled%% of bench_ablation), and
// peq_reuses() — kernel texts that reused an already-built Peq table
// instead of paying pattern preprocessing.

#ifndef TSJ_DISTANCE_MYERS_BATCH_H_
#define TSJ_DISTANCE_MYERS_BATCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tsj {

/// Which backend computes a packed pass. kAuto resolves to the best
/// backend the host supports (AVX2 > SSE2 > portable).
enum class BatchSimdMode { kAuto, kPortable, kSse2, kAvx2 };

/// The CC_VERIFY_SIMD environment toggle: "off"/"portable" pin the
/// portable lanes, "sse2"/"avx2" pin a vector backend, "auto"/unset (or
/// any unrecognized value) means best available.
BatchSimdMode BatchSimdModeFromEnv();

/// Clamps `requested` to what this host can run: kAuto picks the best
/// available backend; an unsupported explicit backend falls back to
/// portable (identical results either way).
BatchSimdMode ResolveBatchSimdMode(BatchSimdMode requested);

/// Human-readable backend name ("portable", "sse2", "avx2") for logs and
/// bench context.
const char* BatchSimdModeName(BatchSimdMode mode);

/// One-pattern-vs-many bounded-Levenshtein verifier (see the file
/// comment). Not thread-safe: one instance per verify thread
/// (SldVerifyScratch owns one).
class MyersBatchVerifier {
 public:
  /// Lane capacity of a full packed pass.
  static constexpr size_t kMaxLanes = 4;

  /// Default construction resolves CC_VERIFY_SIMD.
  MyersBatchVerifier() : MyersBatchVerifier(BatchSimdModeFromEnv()) {}

  /// `mode` picks the backend (resolved against host support);
  /// `max_lanes` (1, 2 or 4) caps the packing width — the differential
  /// harness sweeps it, production uses the default.
  explicit MyersBatchVerifier(BatchSimdMode mode, size_t max_lanes = kMaxLanes);

  MyersBatchVerifier(const MyersBatchVerifier&) = delete;
  MyersBatchVerifier& operator=(const MyersBatchVerifier&) = delete;
  ~MyersBatchVerifier();

  /// Preprocesses `pattern` into its Peq table (O(|pattern|): the
  /// single-word table is kept all-zero between patterns, like the
  /// scalar kernel's scratch). The bytes are copied — the verifier owns
  /// its pattern, so the caller's buffer may be freed or reused
  /// immediately. (Owning the bytes is load-bearing, not convenience:
  /// clearing the previous pattern's Peq entries requires re-reading the
  /// previous pattern, which a view-based API would read after free the
  /// moment a caller reuses its materialization buffer between rows.)
  void SetPattern(std::string_view pattern);

  /// The current pattern (a view of the verifier-owned copy).
  std::string_view pattern() const { return pattern_; }

  /// out_distances[i] = MyersBoundedLevenshtein(pattern, texts[i],
  /// bound) for every i: exact LD when <= bound, exactly bound + 1
  /// otherwise. Requires a prior SetPattern (an unset pattern is the
  /// empty pattern).
  void VerifyMany(uint32_t bound, std::span<const std::string_view> texts,
                  uint32_t* out_distances);

  /// out_accepts[i] = (LD(pattern, texts[i]) <= bound).
  void VerifyManyWithin(uint32_t bound,
                        std::span<const std::string_view> texts,
                        bool* out_accepts);

  /// The backend packed passes actually run with.
  BatchSimdMode mode() const { return mode_; }
  /// The packing width cap this verifier was constructed with.
  size_t max_lanes() const { return max_lanes_; }

  /// VerifyMany invocations.
  uint64_t batch_calls() const { return batch_calls_; }
  /// Texts that ran a kernel core inside a packed pass (short-circuited
  /// texts — length gap, empty, equal — consume no lane).
  uint64_t lanes_filled() const { return lanes_filled_; }
  /// Lane capacity those passes allocated (groups narrow at the tail:
  /// 4, 2 or 1 slots). lanes_filled / lane_slots is the lanes-filled%.
  uint64_t lane_slots() const { return lane_slots_; }
  /// Kernel texts that reused an already-built Peq table (every core
  /// text after a pattern's first).
  uint64_t peq_reuses() const { return peq_reuses_; }

 private:
  // Runs one packed group of g <= max_lanes_ kernel texts through the
  // selected backend and updates the lane counters.
  void RunGroup(uint32_t bound, const std::string_view* texts, size_t g,
                uint32_t** out_slots);
  // Blocked scalar core for patterns > 64 chars, reusing the shared
  // blocked Peq table built by SetPattern.
  uint32_t RunBlocked(uint32_t bound, std::string_view text);

  BatchSimdMode mode_;
  size_t max_lanes_;
  // Owned pattern bytes; pattern_ views pattern_storage_. Clearing the
  // old single-word Peq entries re-reads the old pattern, so the bytes
  // must be owned here, not borrowed.
  std::string pattern_storage_;
  std::string_view pattern_;
  // Single-word Peq (pattern <= 64 chars), kept all-zero between
  // patterns: SetPattern clears exactly the bytes the old pattern set.
  uint64_t peq_[256] = {};
  // Blocked Peq [char * blocks + block] (pattern > 64 chars) and the
  // per-text VP/VN scratch of the blocked core.
  std::vector<uint64_t> peq_blocks_;
  std::vector<uint64_t> blocked_vp_, blocked_vn_;
  size_t pattern_blocks_ = 0;

  uint64_t core_texts_since_pattern_ = 0;
  uint64_t batch_calls_ = 0;
  uint64_t lanes_filled_ = 0;
  uint64_t lane_slots_ = 0;
  uint64_t peq_reuses_ = 0;
  std::vector<uint32_t> within_scratch_;  // VerifyManyWithin distances
};

}  // namespace tsj

#endif  // TSJ_DISTANCE_MYERS_BATCH_H_
