// Shared helpers for the test suite: random string/token generation over a
// small alphabet (so that collisions and near-misses are common enough to
// exercise boundary behaviour), brute-force reference joins, and a guard
// for tests that arm the process-global fault injector.

#ifndef TSJ_TESTS_TEST_UTIL_H_
#define TSJ_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tokenized/tokenized_string.h"
#include "tsj/tsj.h"

namespace tsj {
namespace testutil {

/// Random string of length in [min_len, max_len] over the first
/// `alphabet_size` lower-case letters.
inline std::string RandomString(Rng* rng, size_t min_len, size_t max_len,
                                int alphabet_size = 4) {
  const size_t len =
      static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(min_len),
                                          static_cast<int64_t>(max_len)));
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(
        'a' + rng->Uniform(static_cast<uint64_t>(alphabet_size))));
  }
  return s;
}

/// Random tokenized string: [min_tokens, max_tokens] random tokens.
inline TokenizedString RandomTokenizedString(Rng* rng, size_t min_tokens,
                                             size_t max_tokens,
                                             size_t min_len, size_t max_len,
                                             int alphabet_size = 4) {
  const size_t n = static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(min_tokens),
                      static_cast<int64_t>(max_tokens)));
  TokenizedString tokens;
  tokens.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tokens.push_back(RandomString(rng, min_len, max_len, alphabet_size));
  }
  return tokens;
}

/// Random string over the full byte range (0x00..0xFF), for kernels that
/// must be 8-bit clean (the Myers Peq table indexes by unsigned byte; a
/// signed-char slip shows up immediately on these).
inline std::string RandomByteString(Rng* rng, size_t min_len,
                                    size_t max_len) {
  const size_t len =
      static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(min_len),
                                          static_cast<int64_t>(max_len)));
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return s;
}

/// Random UTF-8-ish string: a mix of ASCII characters and 2-3 byte
/// sequences with a 0xC0..0xEF lead and 0x80..0xBF continuations. The
/// Levenshtein kernels operate on bytes, so this only needs to *look*
/// like UTF-8 (high bits set, multi-byte runs), not validate.
inline std::string RandomUtf8ishString(Rng* rng, size_t min_cps,
                                       size_t max_cps) {
  const size_t cps =
      static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(min_cps),
                                          static_cast<int64_t>(max_cps)));
  std::string s;
  for (size_t i = 0; i < cps; ++i) {
    const uint64_t kind = rng->Uniform(3);
    if (kind == 0) {  // ASCII
      s.push_back(static_cast<char>('a' + rng->Uniform(26)));
    } else {
      const size_t continuations = kind;  // 1 or 2
      s.push_back(static_cast<char>((continuations == 1 ? 0xC0 : 0xE0) +
                                    rng->Uniform(16)));
      for (size_t c = 0; c < continuations; ++c) {
        s.push_back(static_cast<char>(0x80 + rng->Uniform(64)));
      }
    }
  }
  return s;
}

/// Wraps x and y in the same random prefix and suffix (each up to
/// max_affix chars), producing pairs whose differing core hides behind
/// long shared ends — the input family affix trimming must get right.
inline void AddCommonAffixes(Rng* rng, size_t max_affix, std::string* x,
                             std::string* y) {
  const std::string prefix = RandomString(rng, 0, max_affix, 26);
  const std::string suffix = RandomString(rng, 0, max_affix, 26);
  *x = prefix + *x + suffix;
  *y = prefix + *y + suffix;
}

/// Applies one random character-level edit (insert/delete/substitute).
inline std::string RandomEdit(Rng* rng, std::string s, int alphabet_size = 4) {
  const char c = static_cast<char>(
      'a' + rng->Uniform(static_cast<uint64_t>(alphabet_size)));
  const uint64_t op = rng->Uniform(3);
  if (op == 0 || s.empty()) {  // insert
    const size_t pos = rng->Uniform(s.size() + 1);
    s.insert(s.begin() + static_cast<ptrdiff_t>(pos), c);
  } else if (op == 1) {  // delete
    const size_t pos = rng->Uniform(s.size());
    s.erase(s.begin() + static_cast<ptrdiff_t>(pos));
  } else {  // substitute
    const size_t pos = rng->Uniform(s.size());
    s[pos] = c;
  }
  return s;
}

/// Brute-force R x P NSLD join: every (r, p) with NSLD <= t, with `a` the
/// id in r and `b` the id in p, by exact Hungarian SLD with no filters and
/// no cache — the two-collection counterpart of BruteForceNsldSelfJoin
/// (eval/join_metrics.h), computing NSLD the same way.
inline std::vector<TsjPair> BruteForceRP(const Corpus& r, const Corpus& p,
                                         double t) {
  std::vector<TsjPair> pairs;
  for (uint32_t i = 0; i < r.size(); ++i) {
    const TokenizedString x = r.Materialize(i);
    for (uint32_t j = 0; j < p.size(); ++j) {
      const int64_t sld = Sld(x, p.Materialize(j), TokenAligning::kExact);
      const double nsld =
          NsldFromSld(sld, r.aggregate_length(i), p.aggregate_length(j));
      if (nsld <= t) pairs.push_back(TsjPair{i, j, nsld});
    }
  }
  return pairs;
}

/// Re-arms the fault injector from CC_FAULT_SPEC when it goes out of scope,
/// so a test that calls FaultInjector::Configure cannot leave its spec
/// armed for the rest of the binary, even when an assertion returns early.
struct RestoreFaultSpecFromEnv {
  ~RestoreFaultSpecFromEnv() { FaultInjector::Global().ConfigureFromEnv(); }
};

}  // namespace testutil
}  // namespace tsj

#endif  // TSJ_TESTS_TEST_UTIL_H_
