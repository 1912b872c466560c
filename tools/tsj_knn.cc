// tsj_knn: command-line K-nearest-neighbour queries under NSLD.
//
// Builds an NSLD VP-tree over a file of strings (one per line), then
// answers queries: each query string (from --query or stdin lines) is
// answered with its K nearest records as "rank<TAB>id<TAB>nsld<TAB>line".
//
// Usage:
//   tsj_knn --input names.txt [--k 10] [--query "barak obama"]
//
// Without --query, queries are read from stdin, one per line. Exits 2 on
// a usage error (an unknown flag, a flag without its value, a K that is
// not a positive integer) and 1 when the input cannot be read or the
// answers cannot be written.

#include <iostream>
#include <limits>
#include <string>

#include "common/parse.h"
#include "metric/nsld_index.h"
#include "text/tokenizer.h"
#include "tokenized/corpus_io.h"

namespace {

constexpr char kUsage[] =
    "usage: tsj_knn --input FILE [--k K] [--query STRING]\n";

void Answer(const tsj::NsldIndex& index,
            const std::vector<std::string>& raw_lines,
            const tsj::Tokenizer& tokenizer, const std::string& query,
            size_t k) {
  const auto matches = index.KNearest(tokenizer.Tokenize(query), k);
  std::cout << "query: " << query << "\n";
  size_t rank = 1;
  for (const auto& match : matches) {
    std::cout << rank++ << '\t' << match.id << '\t' << match.distance << '\t'
              << raw_lines[match.id] << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string query;
  size_t k = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--input" && arg != "--query" && arg != "--k") {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
    if (i + 1 == argc) {  // the flag's value is missing
      std::cerr << kUsage;
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--input") {
      input_path = value;
    } else if (arg == "--query") {
      query = value;
    } else {
      k = tsj::ParsePositiveInt(value, std::numeric_limits<size_t>::max());
      if (k == 0) {  // non-numeric, zero or negative
        std::cerr << kUsage;
        return 2;
      }
    }
  }
  if (input_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  tsj::Tokenizer tokenizer;
  const auto loaded = tsj::ReadCorpusFromFile(input_path, tokenizer);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "indexing " << loaded->corpus.size() << " records...\n";
  tsj::NsldIndex index(loaded->corpus);

  if (!query.empty()) {
    Answer(index, loaded->raw_lines, tokenizer, query, k);
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      Answer(index, loaded->raw_lines, tokenizer, line, k);
    }
  }
  // A full disk or a closed pipe shows only once the buffer is flushed.
  std::cout.flush();
  if (!std::cout) {
    std::cerr << "cannot write output: stdout\n";
    return 1;
  }
  return 0;
}
