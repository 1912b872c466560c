// tsj_join: command-line NSLD self-join.
//
// Reads one tokenizable string per line (account names, product titles,
// ...), runs the Tokenized-String Joiner, and writes one similar pair per
// line as "id_a<TAB>id_b<TAB>nsld" (ids are 0-based input line numbers).
//
// Usage:
//   tsj_join --input names.txt [--output pairs.tsv]
//            [--threshold 0.1] [--max-token-frequency 1000]
//            [--aligning exact|greedy] [--matching fuzzy|exact]
//            [--dedup one|both] [--stats]
//
// --stats prints the run's counters to stderr: among them the pairs the
// length window and the bag filter skipped during generation (before
// dedup), and the distinct candidates the histogram filter pruned. Its
// "wall seconds" time the whole join call; the "in jobs" line under it is
// the part spent inside the MapReduce jobs, so the serial work between
// them is the difference.
//
// Exit status: 0 on success; 1 when the input cannot be read, the join
// fails, or the pairs cannot be written; 2 on bad arguments.
//
// Example:
//   printf 'barak obama\nobama barak\njohn smith\n' > /tmp/names.txt
//   tsj_join --input /tmp/names.txt --threshold 0.2

#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "common/parse.h"
#include "common/stopwatch.h"
#include "tokenized/corpus_io.h"
#include "tsj/tsj.h"

namespace {

struct CliOptions {
  std::string input;
  std::string output;  // empty = stdout
  bool print_stats = false;
  tsj::TsjOptions join;
};

void PrintUsage() {
  std::cerr <<
      "usage: tsj_join --input FILE [--output FILE] [--threshold T]\n"
      "                [--max-token-frequency M] [--aligning exact|greedy]\n"
      "                [--matching fuzzy|exact] [--dedup one|both] [--stats]\n";
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      options->input = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      options->output = v;
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr ||
          !tsj::ParseThreshold(v, &options->join.threshold)) {
        return false;
      }
    } else if (arg == "--max-token-frequency") {
      const char* v = next();
      if (v == nullptr) return false;
      const uint64_t m =
          tsj::ParsePositiveInt(v, std::numeric_limits<uint32_t>::max());
      if (m == 0) return false;
      options->join.max_token_frequency = static_cast<uint32_t>(m);
    } else if (arg == "--aligning") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string mode = v;
      if (mode == "exact") {
        options->join.aligning = tsj::TokenAligning::kExact;
      } else if (mode == "greedy") {
        options->join.aligning = tsj::TokenAligning::kGreedy;
      } else {
        return false;
      }
    } else if (arg == "--matching") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string mode = v;
      if (mode == "fuzzy") {
        options->join.matching = tsj::TokenMatching::kFuzzy;
      } else if (mode == "exact") {
        options->join.matching = tsj::TokenMatching::kExact;
      } else {
        return false;
      }
    } else if (arg == "--dedup") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string mode = v;
      if (mode == "one") {
        options->join.dedup = tsj::DedupStrategy::kGroupOnOneString;
      } else if (mode == "both") {
        options->join.dedup = tsj::DedupStrategy::kGroupOnBothStrings;
      } else {
        return false;
      }
    } else if (arg == "--stats") {
      options->print_stats = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return !options->input.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  const auto loaded = tsj::ReadCorpusFromFile(options.input);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }

  tsj::TsjRunInfo info;
  const tsj::Stopwatch join_watch;
  const auto pairs = tsj::TokenizedStringJoiner(options.join)
                         .SelfJoin(loaded->corpus, &info);
  const double join_seconds = join_watch.ElapsedSeconds();
  if (!pairs.ok()) {
    std::cerr << pairs.status().ToString() << "\n";
    return 1;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!options.output.empty()) {
    file.open(options.output);
    if (!file.is_open()) {
      std::cerr << "cannot open output file: " << options.output << "\n";
      return 1;
    }
    out = &file;
  }
  tsj::WritePairs(*out, *pairs);
  // A full disk or a closed pipe shows only once the buffer is flushed.
  out->flush();
  if (!*out) {
    std::cerr << "cannot write output: "
              << (options.output.empty() ? "stdout" : options.output)
              << "\n";
    return 1;
  }

  if (options.print_stats) {
    std::cerr << "strings:              " << loaded->corpus.size() << "\n"
              << "distinct tokens:      "
              << loaded->corpus.num_distinct_tokens() << "\n"
              << "dropped tokens (>M):  " << info.dropped_tokens << "\n"
              << "length-skipped:       " << info.length_filtered << "\n"
              << "bag-skipped:          " << info.bag_filtered << "\n"
              << "distinct candidates:  " << info.distinct_candidates << "\n"
              << "histogram-filtered:   " << info.histogram_filtered << "\n"
              << "verified:             " << info.verified_candidates << "\n"
              << "pairs:                " << info.result_pairs << "\n"
              << "wall seconds:         " << join_seconds << "\n"
              << "  in jobs:            "
              << info.pipeline.total_wall_seconds() << "\n";
  }
  return 0;
}
