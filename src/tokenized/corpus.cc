#include "tokenized/corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace tsj {

TokenId Corpus::InternToken(std::string_view token) {
  auto it = token_index_.find(token);
  if (it != token_index_.end()) return it->second;
  const TokenId id = static_cast<TokenId>(token_texts_.size());
  token_texts_.emplace_back(token);
  token_index_.emplace(token_texts_.back(), id);
  return id;
}

StringId Corpus::AddString(const TokenizedString& tokens) {
  // Offsets and aggregate lengths are 32-bit (corpus.h): check that both
  // fit before anything is stored.
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  size_t aggregate = 0;
  for (const std::string& token : tokens) aggregate += token.size();
  if (tokens.size() > kMax - token_ids_.size() || aggregate > kMax) {
    std::fprintf(stderr,
                 "Corpus::AddString: %zu tokens of %zu characters do not "
                 "fit a corpus of %zu tokens with 32-bit offsets\n",
                 tokens.size(), aggregate, token_ids_.size());
    std::abort();
  }
  if (offsets_.empty()) offsets_.push_back(0);  // the first string's start
  const size_t begin = token_ids_.size();
  CharBag bag{};
  for (const std::string& token : tokens) {
    token_ids_.push_back(InternToken(token));
    token_lengths_.push_back(static_cast<uint32_t>(token.size()));
    AddToCharBag(token, &bag);
  }
  std::sort(token_lengths_.begin() + static_cast<ptrdiff_t>(begin),
            token_lengths_.end());
  const StringId id = static_cast<StringId>(size());
  offsets_.push_back(static_cast<uint32_t>(token_ids_.size()));
  aggregate_lengths_.push_back(static_cast<uint32_t>(aggregate));
  char_bags_.push_back(bag);
  return id;
}

TokenizedString Corpus::Materialize(StringId id) const {
  const std::span<const TokenId> ids = tokens(id);
  TokenizedString materialized;
  materialized.reserve(ids.size());
  for (const TokenId t : ids) materialized.push_back(token_texts_[t]);
  return materialized;
}

std::vector<uint32_t> Corpus::ComputeTokenStringFrequencies() const {
  std::vector<uint32_t> freq(token_texts_.size(), 0);
  // Strings are walked in id order, so a token this string already counted
  // has this string as the last one it was counted for: no per-string
  // copy, sort or unique.
  std::vector<StringId> last_string(token_texts_.size(),
                                    std::numeric_limits<StringId>::max());
  for (StringId s = 0; s < size(); ++s) {
    for (const TokenId t : tokens(s)) {
      if (last_string[t] == s) continue;
      last_string[t] = s;
      ++freq[t];
    }
  }
  return freq;
}

}  // namespace tsj
