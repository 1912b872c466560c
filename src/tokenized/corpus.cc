#include "tokenized/corpus.h"

#include <algorithm>
#include <limits>

namespace tsj {

TokenId Corpus::InternToken(std::string_view token) {
  auto it = token_ids_.find(std::string(token));
  if (it != token_ids_.end()) return it->second;
  const TokenId id = static_cast<TokenId>(token_texts_.size());
  token_texts_.emplace_back(token);
  token_ids_.emplace(token_texts_.back(), id);
  return id;
}

StringId Corpus::AddString(const TokenizedString& tokens) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  size_t aggregate = 0;
  std::vector<uint32_t> lengths;
  lengths.reserve(tokens.size());
  CharBag bag{};
  for (const auto& token : tokens) {
    ids.push_back(InternToken(token));
    aggregate += token.size();
    lengths.push_back(static_cast<uint32_t>(token.size()));
    AddToCharBag(token, &bag);
  }
  std::sort(lengths.begin(), lengths.end());
  const StringId id = static_cast<StringId>(strings_.size());
  strings_.push_back(std::move(ids));
  aggregate_lengths_.push_back(aggregate);
  length_histograms_.push_back(std::move(lengths));
  char_bags_.push_back(bag);
  return id;
}

TokenizedString Corpus::Materialize(StringId id) const {
  TokenizedString tokens;
  tokens.reserve(strings_[id].size());
  for (TokenId t : strings_[id]) tokens.push_back(token_texts_[t]);
  return tokens;
}

std::vector<uint32_t> Corpus::ComputeTokenStringFrequencies() const {
  std::vector<uint32_t> freq(token_texts_.size(), 0);
  // Strings are walked in id order, so a token this string already counted
  // has this string as the last one it was counted for: no per-string
  // copy, sort or unique.
  std::vector<StringId> last_string(token_texts_.size(),
                                    std::numeric_limits<StringId>::max());
  for (StringId s = 0; s < strings_.size(); ++s) {
    for (const TokenId t : strings_[s]) {
      if (last_string[t] == s) continue;
      last_string[t] = s;
      ++freq[t];
    }
  }
  return freq;
}

}  // namespace tsj
