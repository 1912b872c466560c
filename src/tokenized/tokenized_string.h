// Basic vocabulary for tokenized strings (Sec. II-A): a tokenized string is
// a finite multiset of tokens; T(x^t) is its token count and L(x^t) the
// aggregate token length. Tokens are plain std::string; higher layers intern
// them through Corpus. The token-length histogram and the character bag are
// the per-string metadata of TSJ's filters (tokenized/bounds.h).

#ifndef TSJ_TOKENIZED_TOKENIZED_STRING_H_
#define TSJ_TOKENIZED_TOKENIZED_STRING_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsj {

/// Identifier of a tokenized string within a Corpus.
using StringId = uint32_t;
/// Identifier of a distinct token within a Corpus.
using TokenId = uint32_t;

/// A tokenized string: an owned multiset of tokens.
using TokenizedString = std::vector<std::string>;

/// L(x^t): the aggregate length of all tokens.
size_t AggregateLength(const TokenizedString& tokens);

/// The multiset of token lengths, sorted ascending. This is the
/// "histogram of token lengths" TSJ attaches to string ids for the
/// distance-lower-bound filter (Sec. III-E.2).
std::vector<uint32_t> SortedTokenLengths(const TokenizedString& tokens);

/// Buckets of a CharBag.
inline constexpr size_t kCharBagBuckets = 32;

/// The character bag of a tokenized string: the byte counts of all its
/// tokens together, bucketed by `byte % 32` and saturating at 255. Exact
/// for 'a'-'z' up to 255 occurrences each. Bucketing and saturation only
/// ever shrink a multiset difference, so the bag bound
/// (SldLowerBoundFromCharBags, tokenized/bounds.h) holds on any bytes.
using CharBag = std::array<uint8_t, kCharBagBuckets>;

/// Adds the bytes of `token` to `*bag`. Corpus::AddString builds each
/// string's bag this way inside the token loop it already runs.
inline void AddToCharBag(std::string_view token, CharBag* bag) {
  for (const char c : token) {
    uint8_t& count = (*bag)[static_cast<unsigned char>(c) % kCharBagBuckets];
    if (count != 255) ++count;
  }
}

}  // namespace tsj

#endif  // TSJ_TOKENIZED_TOKENIZED_STRING_H_
