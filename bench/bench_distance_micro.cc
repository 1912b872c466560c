// Micro-benchmarks of the distance and assignment kernels (google-
// benchmark). Not a paper figure; used to validate the asymptotic claims
// of Sec. III-F/III-G.5 (Hungarian O(k^3) vs. greedy O(k^2 log k), the
// bounded Myers kernel vs. the full Levenshtein DP).

#include <string>
#include <vector>

#include "assignment/greedy_matching.h"
#include "assignment/hungarian.h"
#include "benchmark/benchmark.h"
#include "common/random.h"
#include "distance/jaro.h"
#include "distance/levenshtein.h"
#include "distance/myers.h"
#include "distance/normalized_levenshtein.h"
#include "tokenized/bounds.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "workload/name_generator.h"

namespace tsj {
namespace {

std::string MakeString(Rng* rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->Uniform(6)));
  }
  return s;
}

void BM_Levenshtein(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  const std::string x = MakeString(&rng, len);
  const std::string y = MakeString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(x, y));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(128);

// The bounded Myers kernel, every join's LD, on far-apart random strings:
// the reject path, where the kernel exits early once the bound is out of
// reach. BM_Levenshtein above is the full DP on the same shapes.
void BM_MyersBoundedLevenshtein(benchmark::State& state) {
  Rng rng(2);
  const size_t len = static_cast<size_t>(state.range(0));
  const uint32_t bound = static_cast<uint32_t>(state.range(1));
  const std::string x = MakeString(&rng, len);
  const std::string y = MakeString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MyersBoundedLevenshtein(x, y, bound));
  }
}
BENCHMARK(BM_MyersBoundedLevenshtein)
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({128, 1})
    ->Args({128, 4});

// Accept-path variant: y is x after `bound` random edits, so the
// distance is within the bound and the kernel cannot abort early — the
// regime of every near-threshold candidate the verify stage must fully
// resolve.
std::string ApplyEdits(Rng* rng, std::string s, size_t edits) {
  for (size_t e = 0; e < edits; ++e) {
    const char c = static_cast<char>('a' + rng->Uniform(6));
    const uint64_t op = rng->Uniform(3);
    if (op == 0 || s.empty()) {
      s.insert(s.begin() + static_cast<ptrdiff_t>(rng->Uniform(s.size() + 1)),
               c);
    } else if (op == 1) {
      s.erase(s.begin() + static_cast<ptrdiff_t>(rng->Uniform(s.size())));
    } else {
      s[rng->Uniform(s.size())] = c;
    }
  }
  return s;
}

void BM_MyersBoundedLevenshteinSimilar(benchmark::State& state) {
  Rng rng(12);
  const size_t len = static_cast<size_t>(state.range(0));
  const uint32_t bound = static_cast<uint32_t>(state.range(1));
  const std::string x = MakeString(&rng, len);
  const std::string y = ApplyEdits(&rng, x, bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MyersBoundedLevenshtein(x, y, bound));
  }
}
BENCHMARK(BM_MyersBoundedLevenshteinSimilar)
    ->Args({32, 4})
    ->Args({64, 4})
    ->Args({64, 8});

void BM_NldWithin(benchmark::State& state) {
  Rng rng(3);
  const std::string x = MakeString(&rng, 12);
  const std::string y = MakeString(&rng, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NldWithin(x, y, 0.1));
  }
}
BENCHMARK(BM_NldWithin);

// The bag filter's per-pair check (tokenized/bounds.h): the L1 distance
// of two 32-byte character bags and the saturation terms, with the bag
// sizes held beside the bags as TSJ's shared-token walk holds them. The
// bags come from generated names at run time, so the compiler sees no
// constant input; each iteration checks the next pair of neighbours.
void BM_CharBagBound(benchmark::State& state) {
  constexpr size_t kNames = 4096;  // a power of two, for the index wrap
  const NameGenerator generator(NameGeneratorOptions{});
  Rng rng(12);
  Corpus corpus;
  for (size_t i = 0; i < kNames; ++i) corpus.AddString(generator.Sample(&rng));
  std::vector<uint32_t> sizes(kNames);
  for (size_t i = 0; i < kNames; ++i) {
    sizes[i] = CharBagSize(corpus.char_bag(static_cast<StringId>(i)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = (i + 1) & (kNames - 1);
    benchmark::DoNotOptimize(SldLowerBoundFromCharBags(
        corpus.char_bag(static_cast<StringId>(i)), sizes[i],
        corpus.char_bag(static_cast<StringId>(j)), sizes[j],
        corpus.aggregate_length(static_cast<StringId>(i)),
        corpus.aggregate_length(static_cast<StringId>(j))));
    i = j;
  }
}
BENCHMARK(BM_CharBagBound);

void BM_JaroWinkler(benchmark::State& state) {
  Rng rng(4);
  const std::string x = MakeString(&rng, 12);
  const std::string y = MakeString(&rng, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(x, y));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(5);
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<int64_t> costs(k * k);
  for (auto& c : costs) c = static_cast<int64_t>(rng.Uniform(20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(costs, k));
  }
}
BENCHMARK(BM_Hungarian)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GreedyMatching(benchmark::State& state) {
  Rng rng(6);
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<int64_t> costs(k * k);
  for (auto& c : costs) c = static_cast<int64_t>(rng.Uniform(20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentGreedy(costs, k));
  }
}
BENCHMARK(BM_GreedyMatching)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SldExact(benchmark::State& state) {
  Rng rng(7);
  const size_t tokens = static_cast<size_t>(state.range(0));
  TokenizedString x, y;
  for (size_t i = 0; i < tokens; ++i) {
    x.push_back(MakeString(&rng, 6));
    y.push_back(MakeString(&rng, 6));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sld(x, y, TokenAligning::kExact));
  }
}
BENCHMARK(BM_SldExact)->Arg(2)->Arg(4)->Arg(8);

void BM_HungarianBounded(benchmark::State& state) {
  // Budget set to half the optimal cost: the bounded solver must abort
  // partway — the verify-stage fate of most surviving candidates.
  Rng rng(9);
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<int64_t> costs(k * k);
  for (auto& c : costs) c = static_cast<int64_t>(rng.Uniform(20));
  const int64_t budget = SolveAssignment(costs, k).total_cost / 2;
  HungarianScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveAssignmentBounded(costs, k, budget, &scratch));
  }
}
BENCHMARK(BM_HungarianBounded)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Budgeted-vs-exact verification on interned token ids, the path every
// join runs: BM_SldExact above is the unbounded byte-level baseline. The
// reject rows bound a dissimilar pair at the NSLD-threshold budget (early
// abort, the common case); the accept rows verify identical multisets
// (SLD 0).
void BM_BoundedSldReject(benchmark::State& state) {
  Rng rng(10);
  const size_t tokens = static_cast<size_t>(state.range(0));
  TokenizedString x, y;
  for (size_t i = 0; i < tokens; ++i) {
    x.push_back(MakeString(&rng, 6));
    y.push_back(MakeString(&rng, 6));
  }
  Corpus corpus;
  const StringId xid = corpus.AddString(x);
  const StringId yid = corpus.AddString(y);
  const int64_t budget = SldBudgetFromThreshold(0.1, AggregateLength(x),
                                                AggregateLength(y));
  SldVerifyScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedSld(corpus, corpus.tokens(xid),
                                        corpus.tokens(yid), budget,
                                        TokenAligning::kExact, &scratch));
  }
}
BENCHMARK(BM_BoundedSldReject)->Arg(2)->Arg(4)->Arg(8);

void BM_BoundedSldAccept(benchmark::State& state) {
  Rng rng(11);
  const size_t num_tokens = static_cast<size_t>(state.range(0));
  TokenizedString x, y;
  for (size_t i = 0; i < num_tokens; ++i) {
    x.push_back(MakeString(&rng, 6));
    y.push_back(x.back());
  }
  Corpus corpus;
  const StringId xid = corpus.AddString(x);
  const StringId yid = corpus.AddString(y);
  const int64_t budget = SldBudgetFromThreshold(0.1, AggregateLength(x),
                                                AggregateLength(y));
  SldVerifyScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedSld(corpus, corpus.tokens(xid),
                                        corpus.tokens(yid), budget,
                                        TokenAligning::kExact, &scratch));
  }
}
BENCHMARK(BM_BoundedSldAccept)->Arg(2)->Arg(4)->Arg(8);

void BM_SldGreedy(benchmark::State& state) {
  Rng rng(8);
  const size_t tokens = static_cast<size_t>(state.range(0));
  TokenizedString x, y;
  for (size_t i = 0; i < tokens; ++i) {
    x.push_back(MakeString(&rng, 6));
    y.push_back(MakeString(&rng, 6));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sld(x, y, TokenAligning::kGreedy));
  }
}
BENCHMARK(BM_SldGreedy)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace tsj

// Custom main instead of BENCHMARK_MAIN(): stamps the harness's own
// build type (NDEBUG-derived, unlike the benchmark library's
// library_build_type, which describes libbenchmark) into the JSON
// context, so numbers from a debug-built harness can be told apart.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("tsj_build_type", "release");
#else
  benchmark::AddCustomContext("tsj_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
