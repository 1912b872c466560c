// Shared setup for the figure-reproduction harnesses: the default account
// workload (a scaled-down stand-in for the paper's 44.4M Google-account
// names, which are not public: synthetic names with planted fraud rings,
// workload/ring_workload.h), join timing, and small formatting helpers.
//
// Scale: every harness multiplies its default workload size by the
// TSJ_BENCH_SCALE environment variable (default 1.0), so
// `TSJ_BENCH_SCALE=10 ./fig1_scalability` runs a 10x larger experiment.
//
// Timings are measured on the host that runs the harness. The paper's
// figures come from a 100-1,000-machine MapReduce cluster, so each harness
// prints the paper's numbers as reference lines, not as a target.
//
// Exit status: Figs. 1-5 and 7 and bench_ablation exit 1 when a join
// fails (ExitIfFailed puts its Status on stderr); every harness exits 2 on
// a malformed TSJ_BENCH_SCALE (Scale).

#ifndef TSJ_BENCH_BENCH_COMMON_H_
#define TSJ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "eval/table_printer.h"
#include "tokenized/corpus.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace bench {

/// Multiplier from the TSJ_BENCH_SCALE environment variable: a finite
/// number in (0, 1000], default 1. Anything else ("abc", "-1", "inf",
/// "1e30") prints an error naming the value and exits 2, because a scale
/// the harness cannot honour would silently run some other experiment.
inline double Scale() {
  const char* env = std::getenv("TSJ_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(value > 0.0 && value <= 1000.0)) {
    std::cerr << "TSJ_BENCH_SCALE must be a number in (0, 1000], got '"
              << env << "'\n";
    std::exit(2);
  }
  return value;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

/// The default account-name workload: Zipf token popularity, 1-4 tokens
/// per name, ~6% of accounts in adversarial rings.
inline RingWorkloadOptions DefaultWorkload(size_t num_accounts) {
  RingWorkloadOptions options;
  options.num_accounts = num_accounts;
  options.num_rings = num_accounts / 150;
  options.min_ring_size = 3;
  options.max_ring_size = 8;
  options.names.vocabulary_size = std::max<size_t>(500, num_accounts / 5);
  options.names.zipf_skew = 0.9;
  options.names.min_tokens = 1;
  options.names.max_tokens = 4;
  options.names.min_syllables = 1;
  options.names.max_syllables = 4;
  options.seed = 20190321;
  return options;
}

/// Joins per timed cell; each cell reports their median.
inline constexpr int kTimedRuns = 3;

/// The worker counts the worker sweeps run at.
inline constexpr std::array<size_t, 3> kWorkerCounts = {1, 2, 4};

/// A failed join has no time or result to report: prints its Status to
/// stderr and exits 1.
inline void ExitIfFailed(const Status& status) {
  if (status.ok()) return;
  std::cerr << "join failed: " << status.ToString() << "\n";
  std::exit(1);
}

/// Runs `joiner.SelfJoin(corpus, info)` kTimedRuns times and returns the
/// median wall seconds of the call. `*info` and `*pairs` (optional) hold
/// the last run's counters and result.
template <typename Joiner, typename Info>
double MedianSelfJoinSeconds(const Joiner& joiner, const Corpus& corpus,
                             Info* info,
                             std::vector<TsjPair>* pairs = nullptr) {
  std::vector<double> seconds;
  for (int run = 0; run < kTimedRuns; ++run) {
    Stopwatch watch;
    auto result = joiner.SelfJoin(corpus, info);
    seconds.push_back(watch.ElapsedSeconds());
    ExitIfFailed(result.status());
    if (pairs != nullptr) *pairs = std::move(*result);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

/// Percent by which `value` is below `reference`.
inline double SavingPercent(double reference, double value) {
  return reference > 0 ? 100.0 * (reference - value) / reference : 0.0;
}

/// Figs. 2 and 3: each row times fuzzy-token matching (Hungarian
/// alignment), greedy aligning and exact-token matching at one sweep value
/// and reports their median seconds, their TsjRunInfo::verify_work_units
/// and the savings of the two approximations over fuzzy matching on both.
/// The work units are a count, so the Hungarian-vs-greedy cost gap stays
/// visible when it is smaller than the timing noise. They repeat exactly
/// at one worker; at more, a token pair's later verifications hit the
/// token-pair cache or not depending on which worker computed it first,
/// which moves the count by a few percent between runs.
class MatchingSweep {
 public:
  explicit MatchingSweep(const std::string& sweep_label)
      : table_({sweep_label, "fuzzy (s)", "greedy (s)", "exact-token (s)",
                "fuzzy units", "greedy units", "exact-token units",
                "greedy time saving", "exact time saving",
                "greedy unit saving", "exact unit saving"}) {}

  /// Adds the row for `sweep_value`; `options` carries its T and M.
  void AddRow(const Corpus& corpus, const std::string& sweep_value,
              TsjOptions options) {
    const Cost fuzzy = Measure(corpus, options, TokenMatching::kFuzzy,
                               TokenAligning::kExact);
    const Cost greedy = Measure(corpus, options, TokenMatching::kFuzzy,
                                TokenAligning::kGreedy);
    const Cost exact = Measure(corpus, options, TokenMatching::kExact,
                               TokenAligning::kExact);
    const double savings[4] = {
        SavingPercent(fuzzy.seconds, greedy.seconds),
        SavingPercent(fuzzy.seconds, exact.seconds),
        SavingPercent(static_cast<double>(fuzzy.units),
                      static_cast<double>(greedy.units)),
        SavingPercent(static_cast<double>(fuzzy.units),
                      static_cast<double>(exact.units))};
    std::vector<std::string> row = {
        sweep_value,
        TablePrinter::Fmt(fuzzy.seconds, 4),
        TablePrinter::Fmt(greedy.seconds, 4),
        TablePrinter::Fmt(exact.seconds, 4),
        TablePrinter::Fmt(fuzzy.units),
        TablePrinter::Fmt(greedy.units),
        TablePrinter::Fmt(exact.units)};
    for (int i = 0; i < 4; ++i) {
      saving_sums_[i] += savings[i];
      row.push_back(TablePrinter::Fmt(savings[i], 1) + "%");
    }
    table_.AddRow(std::move(row));
    ++rows_;
  }

  /// Prints the table and the mean savings next to the paper's.
  void Print(const std::string& paper_greedy,
             const std::string& paper_exact) const {
    table_.Print(std::cout);
    const double rows = rows_ > 0 ? rows_ : 1;
    std::cout << "\nmean time saving vs fuzzy: greedy "
              << TablePrinter::Fmt(saving_sums_[0] / rows, 1)
              << "% (paper: " << paper_greedy << "), exact-token "
              << TablePrinter::Fmt(saving_sums_[1] / rows, 1)
              << "% (paper: " << paper_exact << ")\n";
    std::cout << "mean verify-work saving vs fuzzy: greedy "
              << TablePrinter::Fmt(saving_sums_[2] / rows, 1)
              << "%, exact-token "
              << TablePrinter::Fmt(saving_sums_[3] / rows, 1) << "%\n";
  }

 private:
  struct Cost {
    double seconds = 0;
    uint64_t units = 0;
  };

  static Cost Measure(const Corpus& corpus, TsjOptions options,
                      TokenMatching matching, TokenAligning aligning) {
    options.matching = matching;
    options.aligning = aligning;
    TsjRunInfo info;
    const double seconds =
        MedianSelfJoinSeconds(TokenizedStringJoiner(options), corpus, &info);
    return Cost{seconds, info.verify_work_units};
  }

  TablePrinter table_;
  double saving_sums_[4] = {0, 0, 0, 0};
  int rows_ = 0;
};

inline void PrintHeader(const std::string& figure,
                        const std::string& description) {
  std::cout << "\n=== " << figure << " — " << description << " ===\n";
  std::cout << "(workload scale factor TSJ_BENCH_SCALE=" << Scale() << ")\n\n";
}

/// Where a timing harness's times come from, printed under its header.
inline void PrintHost() {
  std::cout << "measured on one host, " << std::thread::hardware_concurrency()
            << " hardware threads; each time is the median of " << kTimedRuns
            << " joins\n\n";
}

}  // namespace bench
}  // namespace tsj

#endif  // TSJ_BENCH_BENCH_COMMON_H_
