// Hardened parsing of numeric environment-variable knobs and of the
// command-line programs' count and threshold arguments.
//
// Every CC_* env knob that means "a positive count" must parse the same
// way: surrounding whitespace tolerated, anything that is not a plain
// positive decimal integer — including a leading '-' (strtoull silently
// wraps -1 into ~2^64), an out-of-range value (ERANGE), or trailing junk
// ("9e19", "100ms") — reads as *unset*, never as a huge or wrapped
// number. CC_SHUFFLE_SPILL_BUDGET (mapreduce/spill.h), tsj_join
// --max-token-frequency, tsj_knn --k and the scaling example's account
// count all parse through here.

#ifndef TSJ_COMMON_PARSE_H_
#define TSJ_COMMON_PARSE_H_

#include <cstdint>

namespace tsj {

/// Parses `value` as a positive decimal integer in [1, max_value].
/// Returns 0 ("unset") for null/empty input, a leading '-', non-numeric
/// or trailing-junk input, and any value that overflows unsigned long
/// long (ERANGE) or exceeds `max_value`. An overflowing count must read
/// as unset, not saturate into a huge bound that looks set but can never
/// be reached: the caller then rejects it (the tools exit 2, and
/// EnvOverrideTest.ArmedOverridesParse fails a CI leg whose spill budget
/// does not parse).
uint64_t ParsePositiveInt(const char* value, uint64_t max_value);

/// Parses all of `value` as an NSLD threshold in [0, 1) into *threshold.
/// Returns false, leaving *threshold alone, for "abc", "0.2x", "nan" and
/// out-of-range values. tsj_join --threshold and the scaling example parse
/// through here.
bool ParseThreshold(const char* value, double* threshold);

}  // namespace tsj

#endif  // TSJ_COMMON_PARSE_H_
