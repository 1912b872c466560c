// ParsePositiveInt (common/parse.h): the one hardened parser behind the
// CC_SHUFFLE_SPILL_BUDGET env knob and the tools' count arguments. The
// table pins the contract that made it exist — strtoull's silent -1
// wraparound and ERANGE saturation must read as *unset* (0), never as a
// huge bound that looks set but can never be reached.

#include "common/parse.h"

#include <cstdint>
#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace tsj {
namespace {

constexpr uint64_t kNoCap = std::numeric_limits<uint64_t>::max();

TEST(ParsePositiveIntTest, Table) {
  struct Case {
    const char* input;  // nullptr = env var unset
    uint64_t max_value;
    uint64_t expected;
  };
  const Case kCases[] = {
      // Plain positive decimals parse.
      {"1", kNoCap, 1},
      {"250", kNoCap, 250},
      {"18446744073709551615", kNoCap, 18446744073709551615ULL},
      // Surrounding whitespace is tolerated (shell-quoted knobs).
      {"  42  ", kNoCap, 42},
      {"\t7\n", kNoCap, 7},
      // Unset / empty / whitespace-only read as unset.
      {nullptr, kNoCap, 0},
      {"", kNoCap, 0},
      {"   ", kNoCap, 0},
      // Zero is not a positive count.
      {"0", kNoCap, 0},
      // A leading '-' must NOT wrap through strtoull into ~2^64, whatever
      // whitespace precedes it. Negated, "-9223372036854775809" wraps to
      // exactly INT64_MAX, which a cap of INT64_MAX would accept.
      {"-1", kNoCap, 0},
      {"-250", kNoCap, 0},
      {"\n-1", kNoCap, 0},
      {"\r-1", kNoCap, 0},
      {"\v-1", kNoCap, 0},
      {"\f-5", kNoCap, 0},
      {"\n-9223372036854775809", INT64_MAX, 0},
      // ERANGE overflow reads as unset, not ULLONG_MAX.
      {"18446744073709551616", kNoCap, 0},
      {"99999999999999999999999999", kNoCap, 0},
      // Trailing junk reads as unset ("9e19" is how LLONG_MAX-ish values
      // sneak past a naive atoll; "100ms" is a unit-suffix typo).
      {"9e19", kNoCap, 0},
      {"100ms", kNoCap, 0},
      {"12.5", kNoCap, 0},
      {"0x10", kNoCap, 0},
      {"ten", kNoCap, 0},
      // strtoull accepts an explicit '+' sign; still a positive decimal.
      {"+5", kNoCap, 5},
      // The cap: in-range passes, above-cap reads as unset (an absurd
      // knob disables the feature instead of saturating).
      {"500", 1000, 500},
      {"1000", 1000, 1000},
      {"1001", 1000, 0},
  };
  for (const Case& c : kCases) {
    const std::string label =
        c.input == nullptr ? "<null>" : std::string("'") + c.input + "'";
    EXPECT_EQ(ParsePositiveInt(c.input, c.max_value), c.expected)
        << "input " << label << " cap " << c.max_value;
  }
}

}  // namespace
}  // namespace tsj
