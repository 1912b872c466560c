// Corpus: an interned collection of tokenized strings.
//
// TSJ manipulates identifiers wherever possible — "for efficiency,
// identifiers of the tokenized strings and the tokens are used"
// (Sec. III-C) — and only resolves ids back to strings for the final
// verification. Corpus provides that id space: every distinct token gets a
// TokenId, every tokenized string a StringId, and per-string metadata
// (aggregate length, sorted token-length histogram, character bag) is
// precomputed for the filters of Sec. III-E and the bag filter
// (tokenized/bounds.h).
//
// Layout. The strings are stored flat, in arrays indexed by position
// rather than one heap block per string:
//   * one TokenId array holds every string's token ids, string after
//     string, each in its multiset order;
//   * one uint32_t array holds every string's token lengths, sorted
//     ascending within the string (the histogram);
//   * one offsets array, shared by both, marks where string s starts
//     (offsets_[s]) and ends (offsets_[s + 1]).
// tokens() and length_histogram() return spans into these arrays, so a
// span is valid until the next AddString, which may reallocate them.
//
// Cost of one string of k tokens: 8k bytes in the two token arrays, plus
// 4 (offset) + 4 (aggregate length) + 32 (character bag) bytes, and no
// allocation of its own. Each distinct token costs its text once more
// (std::string plus the interning map's node). Offsets and aggregate
// lengths are 32-bit: AddString aborts the process if the corpus would
// hold 2^32 or more tokens in all, or a string with an aggregate length of
// 2^32 or more.

#ifndef TSJ_TOKENIZED_CORPUS_H_
#define TSJ_TOKENIZED_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tokenized/tokenized_string.h"

namespace tsj {

/// Interned tokenized-string collection with per-string metadata.
class Corpus {
 public:
  Corpus() = default;

  /// Interns `tokens` as a new tokenized string; returns its StringId.
  /// Invalidates every span tokens() and length_histogram() returned.
  StringId AddString(const TokenizedString& tokens);

  /// Number of tokenized strings.
  size_t size() const { return aggregate_lengths_.size(); }

  /// Number of distinct tokens across the corpus.
  size_t num_distinct_tokens() const { return token_texts_.size(); }

  /// Token ids of string `id` (multiset order preserved). Valid until the
  /// next AddString.
  std::span<const TokenId> tokens(StringId id) const {
    return {token_ids_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }

  /// Text of a token id.
  const std::string& token_text(TokenId id) const { return token_texts_[id]; }

  /// Length in characters of a token id.
  uint32_t token_length(TokenId id) const {
    return static_cast<uint32_t>(token_texts_[id].size());
  }

  /// L(x^t): aggregate token length of string `id`.
  size_t aggregate_length(StringId id) const {
    return aggregate_lengths_[id];
  }

  /// Sorted token-length histogram of string `id` (Sec. III-E.2 metadata),
  /// one entry per token. Valid until the next AddString.
  std::span<const uint32_t> length_histogram(StringId id) const {
    return {token_lengths_.data() + offsets_[id],
            offsets_[id + 1] - offsets_[id]};
  }

  /// Character bag of string `id` (the bag filter's metadata).
  const CharBag& char_bag(StringId id) const { return char_bags_[id]; }

  /// Materializes string `id` back into its token multiset, the input of
  /// the byte-level distance functions (Sld, Nsld). Verification reads the
  /// token ids in place instead (the BoundedSld overload in sld.h).
  TokenizedString Materialize(StringId id) const;

  /// Number of tokenized strings that contain each token at least once
  /// (document frequency); indexed by TokenId. Used for the
  /// high-frequency-token optimization (Sec. III-G.2) and IDF weights.
  std::vector<uint32_t> ComputeTokenStringFrequencies() const;

 private:
  // Hashes std::string and std::string_view alike, so the interning map
  // is looked up by a view without building a std::string.
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  TokenId InternToken(std::string_view token);

  std::vector<TokenId> token_ids_;
  std::vector<uint32_t> token_lengths_;
  std::vector<uint32_t> offsets_;  // size() + 1 entries once non-empty
  std::vector<uint32_t> aggregate_lengths_;
  std::vector<CharBag> char_bags_;
  std::vector<std::string> token_texts_;
  std::unordered_map<std::string, TokenId, TextHash, std::equal_to<>>
      token_index_;
};

}  // namespace tsj

#endif  // TSJ_TOKENIZED_CORPUS_H_
