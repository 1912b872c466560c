// Micro-benchmarks of the join kernels: MassJoin vs. brute force on the
// token space, the TSJ and HMJ end-to-end pipelines at small scales, and
// the corpus interning every join's input goes through. Not a paper
// figure; quantifies the candidate-pruning power of the signature scheme.
// A failed join is reported as the benchmark's error, not timed.

#include <string>
#include <vector>

#include "bench_common.h"
#include "benchmark/benchmark.h"
#include "common/random.h"
#include "distance/normalized_levenshtein.h"
#include "hmj/hmj.h"
#include "massjoin/mass_join.h"
#include "tokenized/corpus.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace {

std::vector<std::string> MakeTokens(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> tokens;
  tokens.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string s;
    const size_t len = 3 + rng.Uniform(8);
    for (size_t c = 0; c < len; ++c) {
      s.push_back(static_cast<char>('a' + rng.Uniform(8)));
    }
    tokens.push_back(std::move(s));
  }
  return tokens;
}

void BM_BruteForceNld(benchmark::State& state) {
  const auto tokens = MakeTokens(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    size_t count = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        count += NldWithin(tokens[i], tokens[j], 0.15);
      }
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BruteForceNld)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_MassJoinSelfNld(benchmark::State& state) {
  const auto tokens = MakeTokens(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    auto result = RunMassJoinSelfNld(tokens, 0.15);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MassJoinSelfNld)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_TsjEndToEnd(benchmark::State& state) {
  RingWorkloadOptions options;
  options.num_accounts = static_cast<size_t>(state.range(0));
  options.names.vocabulary_size = options.num_accounts / 4;
  const auto workload = GenerateRingWorkload(options);
  TsjOptions tsj_options;
  tsj_options.threshold = 0.1;
  for (auto _ : state) {
    auto result =
        TokenizedStringJoiner(tsj_options).SelfJoin(workload.corpus);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.num_accounts));
}
BENCHMARK(BM_TsjEndToEnd)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// HMJ with default options on Fig. 7's corpus shape: 2-4 tokens of 2-4
// syllables. A run over its work limit did not finish and is an error too.
void BM_HmjEndToEnd(benchmark::State& state) {
  auto options = bench::DefaultWorkload(static_cast<size_t>(state.range(0)));
  options.names.min_tokens = 2;
  options.names.min_syllables = 2;
  const auto workload = GenerateRingWorkload(options);
  for (auto _ : state) {
    HmjRunInfo info;
    auto result =
        HybridMetricJoiner(HmjOptions{}).SelfJoin(workload.corpus, &info);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    if (!info.completed) {
      state.SkipWithError("HMJ exceeded its work limit");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.num_accounts));
}
BENCHMARK(BM_HmjEndToEnd)->Arg(1000)->Unit(benchmark::kMillisecond);

// Interning alone: each iteration adds the default workload's names to a
// fresh Corpus (tokenized/corpus.h) and frees it. The names are generated
// once, outside the timed loop.
void BM_CorpusBuild(benchmark::State& state) {
  const std::vector<TokenizedString> names =
      GenerateRingWorkload(
          bench::DefaultWorkload(static_cast<size_t>(state.range(0))))
          .names;
  for (auto _ : state) {
    Corpus corpus;
    for (const TokenizedString& name : names) corpus.AddString(name);
    benchmark::DoNotOptimize(corpus);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_CorpusBuild)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tsj

BENCHMARK_MAIN();
