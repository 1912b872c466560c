#include "tokenized/corpus.h"

#include <algorithm>

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
  std::vector<TokenId> seen;
  for (const auto& string_tokens : strings_) {
    seen.assign(string_tokens.begin(), string_tokens.end());
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (TokenId t : seen) ++freq[t];
  }
  return freq;
}

}  // namespace tsj
