#include "tokenized/token_pair_cache.h"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

TEST(TokenPairCacheTest, MissThenHitWithAccounting) {
  TokenPairCache cache;
  uint32_t dist = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, 10, &dist));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(1, 2, /*cap=*/10, /*dist=*/3);  // exact: 3 <= 10
  ASSERT_TRUE(cache.Lookup(1, 2, 10, &dist));
  EXPECT_EQ(dist, 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TokenPairCacheTest, KeyIsSymmetric) {
  TokenPairCache cache;
  cache.Insert(7, 3, /*cap=*/5, /*dist=*/2);
  uint32_t dist = 0;
  ASSERT_TRUE(cache.Lookup(3, 7, 5, &dist));
  EXPECT_EQ(dist, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TokenPairCacheTest, ExactEntryServesEveryCapWithReclamp) {
  TokenPairCache cache;
  cache.Insert(1, 2, /*cap=*/10, /*dist=*/4);  // exact LD = 4
  uint32_t dist = 0;
  // Larger cap: still exact.
  ASSERT_TRUE(cache.Lookup(1, 2, 100, &dist));
  EXPECT_EQ(dist, 4u);
  // Smaller cap that still covers the distance: exact.
  ASSERT_TRUE(cache.Lookup(1, 2, 4, &dist));
  EXPECT_EQ(dist, 4u);
  // Cap below the distance: re-clamped to cap + 1, like the kernel.
  ASSERT_TRUE(cache.Lookup(1, 2, 2, &dist));
  EXPECT_EQ(dist, 3u);
  ASSERT_TRUE(cache.Lookup(1, 2, 0, &dist));
  EXPECT_EQ(dist, 1u);
}

TEST(TokenPairCacheTest, ClampedEntryNeverServedAboveItsCap) {
  TokenPairCache cache;
  // Computed at cap 3 and clamped: only certifies LD > 3.
  cache.Insert(1, 2, /*cap=*/3, /*dist=*/4);
  uint32_t dist = 0;
  // At or below the computed cap: certificate applies, answer is cap + 1.
  ASSERT_TRUE(cache.Lookup(1, 2, 3, &dist));
  EXPECT_EQ(dist, 4u);
  ASSERT_TRUE(cache.Lookup(1, 2, 1, &dist));
  EXPECT_EQ(dist, 2u);
  // Above the computed cap the entry is too weak: must miss (the caller
  // recomputes at the larger cap).
  EXPECT_FALSE(cache.Lookup(1, 2, 4, &dist));
  EXPECT_FALSE(cache.Lookup(1, 2, 100, &dist));
}

TEST(TokenPairCacheTest, InsertNeverDowngrades) {
  TokenPairCache cache;
  uint32_t dist = 0;

  // Certificate upgraded by a stronger certificate...
  cache.Insert(1, 2, /*cap=*/2, /*dist=*/3);
  cache.Insert(1, 2, /*cap=*/5, /*dist=*/6);
  ASSERT_TRUE(cache.Lookup(1, 2, 5, &dist));
  EXPECT_EQ(dist, 6u);
  // ...but not downgraded by a weaker one.
  cache.Insert(1, 2, /*cap=*/1, /*dist=*/2);
  ASSERT_TRUE(cache.Lookup(1, 2, 5, &dist));
  EXPECT_EQ(dist, 6u);

  // Exact beats any certificate and is never replaced.
  cache.Insert(1, 2, /*cap=*/10, /*dist=*/7);
  ASSERT_TRUE(cache.Lookup(1, 2, 100, &dist));
  EXPECT_EQ(dist, 7u);
  cache.Insert(1, 2, /*cap=*/3, /*dist=*/4);  // stale clamp arrives late
  ASSERT_TRUE(cache.Lookup(1, 2, 100, &dist));
  EXPECT_EQ(dist, 7u);
}

TEST(TokenPairCacheTest, ClearResetsEntriesAndCounters) {
  TokenPairCache cache;
  cache.Insert(1, 2, 5, 2);
  uint32_t dist = 0;
  ASSERT_TRUE(cache.Lookup(1, 2, 5, &dist));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Lookup(1, 2, 5, &dist));
}

// ---- L1 tier -------------------------------------------------------------

TEST(TokenPairL1CacheTest, MissComputesInstallAndHitsWithoutSharedTraffic) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  uint32_t dist = 0;
  // Nothing anywhere: two-tier probe misses (and counts a shared miss,
  // since the edge consults the shared shards).
  EXPECT_FALSE(l1.Lookup(&shared, 1, 2, 10, &dist, /*consult_shared=*/true));
  EXPECT_EQ(shared.misses(), 1u);
  // Fresh value: installs into the L1, defers the shared upsert.
  l1.Insert(&shared, 1, 2, /*cap=*/10, /*dist=*/3, /*defer_shared=*/true);
  EXPECT_EQ(l1.size(), 1u);
  EXPECT_EQ(shared.size(), 0u);  // not flushed yet
  // Repeat probe: answered by the L1, no shared hit/miss movement.
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 10, &dist, /*consult_shared=*/true));
  EXPECT_EQ(dist, 3u);
  EXPECT_EQ(shared.hits(), 0u);
  EXPECT_EQ(shared.misses(), 1u);
  // L1 statistics publish at flush, not on the probe path.
  EXPECT_EQ(shared.l1_hits(), 0u);
  l1.Flush(&shared);
  EXPECT_EQ(shared.l1_hits(), 1u);
  EXPECT_EQ(shared.l1_misses(), 1u);
}

TEST(TokenPairL1CacheTest, FlushDrainsDeferredUpsertsIntoSharedShards) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  for (TokenId a = 0; a < 50; ++a) {
    l1.Insert(&shared, a, a + 100, /*cap=*/9, /*dist=*/a % 7, /*defer_shared=*/true);
  }
  EXPECT_EQ(shared.size(), 0u);
  l1.Flush(&shared);
  EXPECT_EQ(shared.size(), 50u);
  EXPECT_EQ(shared.flush_batches(), 1u);
  EXPECT_EQ(shared.flushed_records(), 50u);
  // The flushed entries answer direct shared lookups with full strength.
  uint32_t dist = 0;
  ASSERT_TRUE(shared.Lookup(3, 103, 9, &dist));
  EXPECT_EQ(dist, 3u);
  ASSERT_TRUE(shared.Lookup(3, 103, 100, &dist));  // exact: any cap
  EXPECT_EQ(dist, 3u);
}

TEST(TokenPairL1CacheTest, PendingBufferAutoFlushes) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  // Strictly more inserts than the pending capacity: at least one batch
  // must have flushed on its own, without an explicit Flush call.
  for (TokenId a = 0; a < 2000; ++a) {
    l1.Insert(&shared, a, a + 5000, /*cap=*/4, /*dist=*/1, /*defer_shared=*/true);
  }
  EXPECT_GT(shared.flush_batches(), 0u);
  EXPECT_GT(shared.size(), 0u);
}

TEST(TokenPairL1CacheTest, SharedHitInstallsIntoL1AtFullStrength) {
  TokenPairCache shared;
  shared.Insert(1, 2, /*cap=*/10, /*dist=*/4);  // exact LD = 4
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  uint32_t dist = 0;
  // First probe falls through and installs the raw entry into the L1.
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 6, &dist, /*consult_shared=*/true));
  EXPECT_EQ(dist, 4u);
  EXPECT_EQ(shared.hits(), 1u);
  // Second probe at a cap *below* the stored distance: the L1 entry kept
  // the exact value, so it re-clamps like the shared tier would — and the
  // shared counters no longer move.
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 2, &dist, /*consult_shared=*/true));
  EXPECT_EQ(dist, 3u);
  EXPECT_EQ(shared.hits(), 1u);
  EXPECT_EQ(shared.misses(), 0u);
}

TEST(TokenPairL1CacheTest, WeakCertificateMissesAndUpgrades) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  // Certificate at cap 3 (LD > 3).
  l1.Insert(&shared, 1, 2, /*cap=*/3, /*dist=*/4, /*defer_shared=*/true);
  uint32_t dist = 0;
  // Query below the certificate's cap: served.
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 2, &dist, /*consult_shared=*/true));
  EXPECT_EQ(dist, 3u);
  // Query above it: too weak — must miss in both tiers.
  EXPECT_FALSE(l1.Lookup(&shared, 1, 2, 7, &dist, /*consult_shared=*/true));
  // Recompute upgraded the pair to exact; both tiers see it after flush.
  l1.Insert(&shared, 1, 2, /*cap=*/7, /*dist=*/5, /*defer_shared=*/true);
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 100, &dist, /*consult_shared=*/true));
  EXPECT_EQ(dist, 5u);
  l1.Flush(&shared);
  ASSERT_TRUE(shared.Lookup(1, 2, 100, &dist));
  EXPECT_EQ(dist, 5u);
}

TEST(TokenPairL1CacheTest, BelowGateProbeSkipsSharedShards) {
  TokenPairCache shared;
  shared.Insert(1, 2, /*cap=*/10, /*dist=*/4);
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  uint32_t dist = 0;
  // consult_shared=false (the between-gates edge): an L1 miss must not
  // touch the shared shards at all.
  EXPECT_FALSE(l1.Lookup(&shared, 1, 2, 10, &dist,
                         /*consult_shared=*/false));
  EXPECT_EQ(shared.hits(), 0u);
  EXPECT_EQ(shared.misses(), 0u);
}

TEST(TokenPairL1CacheTest, RebindOnClearDropsStaleEntries) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  l1.Insert(&shared, 1, 2, /*cap=*/10, /*dist=*/3, /*defer_shared=*/true);
  uint32_t dist = 0;
  ASSERT_TRUE(l1.Lookup(&shared, 1, 2, 10, &dist, /*consult_shared=*/true));
  // Clear() bumps the generation: the next bind resets the L1, so the
  // stale entry (and any pending upserts) cannot leak into the "new"
  // cache contents.
  shared.Clear();
  l1.BindTo(&shared);
  EXPECT_EQ(l1.size(), 0u);
  EXPECT_FALSE(l1.Lookup(&shared, 1, 2, 10, &dist, /*consult_shared=*/true));
  l1.Flush(&shared);
  EXPECT_EQ(shared.size(), 0u);  // the pre-Clear insert never lands
}

TEST(TokenPairL1CacheTest, FlushAfterGenerationChangeIsDropped) {
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  l1.Insert(&shared, 1, 2, /*cap=*/10, /*dist=*/3, /*defer_shared=*/true);
  shared.Clear();  // pending upsert now belongs to dead contents
  l1.Flush(&shared);
  EXPECT_EQ(shared.size(), 0u);
  EXPECT_EQ(shared.flush_batches(), 0u);
}

TEST(TokenPairL1CacheTest, EvictionIsLossyButNeverWrong) {
  // Far more distinct pairs than L1 slots: entries must rotate out, and
  // every probe that *does* hit must serve the exact inserted value.
  TokenPairCache shared;
  TokenPairL1Cache l1;
  l1.BindTo(&shared);
  Rng rng(4242);
  constexpr int kPairs = 100000;
  for (int i = 0; i < kPairs; ++i) {
    const TokenId a = static_cast<TokenId>(rng.Uniform(5000));
    const TokenId b = static_cast<TokenId>(5000 + rng.Uniform(5000));
    const uint32_t dist = static_cast<uint32_t>(rng.Uniform(9));
    uint32_t served = 0;
    if (l1.Lookup(&shared, a, b, /*cap=*/10, &served,
                  /*consult_shared=*/true)) {
      // Deterministic per pair: a hit must reproduce the insert below.
      EXPECT_EQ(served, (Mix64((static_cast<uint64_t>(a) << 32) | b)) % 9)
          << "a=" << a << " b=" << b;
    } else {
      l1.Insert(&shared, a, b, /*cap=*/10,
                static_cast<uint32_t>(
                    Mix64((static_cast<uint64_t>(a) << 32) | b) % 9),
                /*defer_shared=*/true);
    }
    (void)dist;
  }
  l1.Flush(&shared);
  EXPECT_LE(l1.size(), size_t{1} << 14);
  EXPECT_GT(shared.size(), 0u);
}

TEST(TokenPairCacheTest, ConcurrentWorkersNeverServeAWrongValue) {
  // Four workers, each with its own L1, share one cache. Neighbouring
  // workers' key ranges overlap by half, so shards grow and rehash while
  // other workers probe them, insert directly and flush L1 batches into
  // them. A miss "computes" min(f(key), cap + 1) at a random cap, as the
  // bounded kernel would; every hit from either tier must equal
  // min(f(key), query_cap + 1).
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kKeysPerWorker = 4000;
  constexpr uint32_t kRangeStride = kKeysPerWorker / 2;
  constexpr uint32_t kDistinctKeys =
      (kWorkers - 1) * kRangeStride + kKeysPerWorker;
  constexpr int kOpsPerWorker = 60000;
  // Key k is the token pair (k, k + kPairOffset); f is its "distance".
  constexpr TokenId kPairOffset = 1u << 20;
  const auto f = [](uint32_t k) {
    return static_cast<uint32_t>(Mix64(k) % 40);
  };
  TokenPairCache shared;
  std::vector<uint64_t> hits(kWorkers, 0), wrong(kWorkers, 0);
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      TokenPairL1Cache l1;
      Rng rng(7100 + w);
      for (int op = 0; op < kOpsPerWorker; ++op) {
        const uint32_t k = w * kRangeStride +
                           static_cast<uint32_t>(rng.Uniform(kKeysPerWorker));
        const uint32_t cap = static_cast<uint32_t>(rng.Uniform(48));
        const uint32_t want = std::min(f(k), cap + 1);
        uint32_t got = 0;
        bool hit = false;
        if (rng.Uniform(4) == 0) {
          // The shared shards directly, bypassing any L1 tier.
          hit = shared.Lookup(k + kPairOffset, k, cap, &got);
          if (!hit) shared.Insert(k, k + kPairOffset, cap, want);
        } else {
          l1.BindTo(&shared);
          const bool consult_shared = rng.Uniform(5) != 0;
          hit = l1.Lookup(&shared, k, k + kPairOffset, cap, &got,
                          consult_shared);
          if (!hit) {
            l1.Insert(&shared, k, k + kPairOffset, cap, want,
                      /*defer_shared=*/consult_shared);
          }
          if (rng.Uniform(200) == 0) l1.FlushIfBatchReady(&shared);
        }
        if (hit) {
          ++hits[w];
          if (got != want) ++wrong[w];
        }
      }
      l1.Flush(&shared);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GT(hits[w], 0u) << "worker " << w;
    EXPECT_EQ(wrong[w], 0u) << "worker " << w;
  }
  EXPECT_LE(shared.size(), size_t{kDistinctKeys});
  // Far more than the 64 shards hold before their first rehash.
  EXPECT_GT(shared.size(), size_t{kDistinctKeys / 2});
  // What the shards kept after the races still serves the right values.
  for (uint32_t k = 0; k < kDistinctKeys; ++k) {
    uint32_t got = 0;
    const uint32_t cap = k % 48;
    if (shared.Lookup(k, k + kPairOffset, cap, &got)) {
      EXPECT_EQ(got, std::min(f(k), cap + 1)) << "k=" << k;
    }
  }
}

// ---- Join-level stress: cached vs. uncached joins ------------------------

using PairNsld = std::set<std::pair<std::pair<uint32_t, uint32_t>, double>>;

PairNsld ToPairNsld(const std::vector<TsjPair>& pairs) {
  PairNsld s;
  for (const auto& p : pairs) s.insert({{p.a, p.b}, p.nsld});
  return s;
}

Corpus StressCorpus(Rng* rng, size_t n) {
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    auto base = testutil::RandomTokenizedString(rng, 1, 3, 2, 7, 3);
    corpus.AddString(base);
    ++added;
    for (uint64_t c = rng->Uniform(3); c > 0 && added < n; --c) {
      auto variant = base;
      const size_t tok = rng->Uniform(variant.size());
      variant[tok] = testutil::RandomEdit(rng, variant[tok], 3);
      corpus.AddString(variant);
      ++added;
    }
  }
  return corpus;
}

TEST(TokenPairCacheStressTest, WarmAndColdJoinsAreByteIdentical) {
  Rng rng(24680);
  const Corpus corpus = StressCorpus(&rng, 120);

  TsjOptions options;
  options.threshold = 0.2;
  options.max_token_frequency = 1u << 30;

  // Reference: token-id path with the cache disabled entirely.
  TsjOptions uncached = options;
  uncached.enable_token_pair_cache = false;
  TsjRunInfo uncached_info;
  const auto expected =
      TokenizedStringJoiner(uncached).SelfJoin(corpus, &uncached_info);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(uncached_info.token_pair_cache_hits, 0u);
  EXPECT_EQ(uncached_info.token_pair_cache_misses, 0u);

  // Cached: the default run verifies against its own cache, which starts
  // cold and warms as candidates repeat token pairs. It both misses and
  // serves hits, and the result stays byte-identical.
  TsjRunInfo cached_info;
  const auto cached =
      TokenizedStringJoiner(options).SelfJoin(corpus, &cached_info);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(ToPairNsld(*cached), ToPairNsld(*expected));
  EXPECT_GT(cached_info.token_pair_cache_misses, 0u);
  EXPECT_GT(cached_info.token_pair_cache_hits +
                cached_info.token_pair_cache_l1_hits,
            0u);
}

}  // namespace
}  // namespace tsj
