// Stable hash functors for MapReduce keys.
//
// Shuffle partitioning needs hashes that are identical across runs and
// platforms, which std::hash does not guarantee. These functors compose
// the fingerprint primitives from common/hash.h for the key shapes used
// throughout the library.

#ifndef TSJ_MAPREDUCE_KEY_HASH_H_
#define TSJ_MAPREDUCE_KEY_HASH_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "common/hash.h"

namespace tsj {

/// Stable hash for integral, string, pair and tuple keys.
struct StableHash {
  uint64_t operator()(uint64_t v) const { return Mix64(v); }
  uint64_t operator()(uint32_t v) const { return Mix64(v); }
  uint64_t operator()(int64_t v) const {
    return Mix64(static_cast<uint64_t>(v));
  }
  uint64_t operator()(int32_t v) const {
    return Mix64(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  uint64_t operator()(const std::string& s) const { return Fingerprint64(s); }

  template <typename A, typename B>
  uint64_t operator()(const std::pair<A, B>& p) const {
    return HashCombine((*this)(p.first), (*this)(p.second));
  }

  template <typename... Ts>
  uint64_t operator()(const std::tuple<Ts...>& t) const {
    uint64_t h = 0x51ed270b35ae9ce5ull;
    std::apply(
        [&](const Ts&... parts) {
          ((h = HashCombine(h, (*this)(parts))), ...);
        },
        t);
    return h;
  }
};

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_KEY_HASH_H_
