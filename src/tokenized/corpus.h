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

#ifndef TSJ_TOKENIZED_CORPUS_H_
#define TSJ_TOKENIZED_CORPUS_H_

#include <cstddef>
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
  StringId AddString(const TokenizedString& tokens);

  /// Number of tokenized strings.
  size_t size() const { return strings_.size(); }

  /// Number of distinct tokens across the corpus.
  size_t num_distinct_tokens() const { return token_texts_.size(); }

  /// Token ids of string `id` (multiset order preserved).
  const std::vector<TokenId>& tokens(StringId id) const {
    return strings_[id];
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

  /// Sorted token-length histogram of string `id` (Sec. III-E.2 metadata).
  const std::vector<uint32_t>& length_histogram(StringId id) const {
    return length_histograms_[id];
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
  TokenId InternToken(std::string_view token);

  std::vector<std::vector<TokenId>> strings_;
  std::vector<size_t> aggregate_lengths_;
  std::vector<std::vector<uint32_t>> length_histograms_;
  std::vector<CharBag> char_bags_;
  std::vector<std::string> token_texts_;
  std::unordered_map<std::string, TokenId> token_ids_;
};

}  // namespace tsj

#endif  // TSJ_TOKENIZED_CORPUS_H_
