// Corpus I/O: build a Corpus from a stream/file of raw strings (one record
// per line, tokenized on the way in) and write join results back out.
// This is the glue a deployment needs around the in-memory API: the
// paper's pipeline reads account names from storage and emits similar-pair
// edges for the downstream clustering stage.

#ifndef TSJ_TOKENIZED_CORPUS_IO_H_
#define TSJ_TOKENIZED_CORPUS_IO_H_

#include <charconv>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "text/tokenizer.h"
#include "tokenized/corpus.h"

namespace tsj {

/// Result of reading a corpus: the interned strings plus the raw lines
/// (aligned with StringIds) for later display.
struct LoadedCorpus {
  Corpus corpus;
  std::vector<std::string> raw_lines;
};

/// Reads one record per line from `input`, tokenizing each with
/// `tokenizer`. Empty lines become empty tokenized strings (they join only
/// each other). Lines are interned in order: line i == StringId i.
LoadedCorpus ReadCorpus(std::istream& input,
                        const Tokenizer& tokenizer = Tokenizer());

/// File-path convenience wrapper; fails with NotFound if the file cannot
/// be opened.
StatusOr<LoadedCorpus> ReadCorpusFromFile(
    const std::string& path, const Tokenizer& tokenizer = Tokenizer());

/// Writes "a<TAB>b<TAB>nsld" lines for each pair. The generic row type
/// only needs fields a, b, nsld (e.g. TsjPair). NSLD is written in the
/// shortest form that reads back as the same double (std::to_chars), so
/// a reader sees exactly the value the join computed: 2/21 is
/// 0.09523809523809523, not 0.0952381.
template <typename Pair>
void WritePairs(std::ostream& output, const std::vector<Pair>& pairs) {
  char nsld[32];
  for (const auto& pair : pairs) {
    const char* end = std::to_chars(nsld, nsld + sizeof(nsld), pair.nsld).ptr;
    output << pair.a << '\t' << pair.b << '\t'
           << std::string_view(nsld, static_cast<size_t>(end - nsld)) << '\n';
  }
}

}  // namespace tsj

#endif  // TSJ_TOKENIZED_CORPUS_IO_H_
