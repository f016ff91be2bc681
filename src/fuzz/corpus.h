// The fuzz phase's corpus: the runs that first reached a dynamic point, in
// run order. The phase merges its runs in run-index order whatever worker ran
// them, so the corpus is byte-identical at any --jobs level.
//
// On disk a corpus is a directory with a MANIFEST listing entry files in
// admission order; each entry file is the workload wire format followed by a
// "hash <fnv64>" checksum line. Loading is fail-loud: a missing, truncated
// or checksum-divergent entry throws naming the offending file.
#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/workload.h"

namespace ctfuzz {

struct CorpusEntry {
  FuzzWorkload workload;
  uint64_t trace_hash = 0;  // trace hash of the run that admitted it
  int run_index = -1;       // fuzz run index that produced it
  int new_keys = 0;         // dynamic points it was first to reach
};

class Corpus {
 public:
  void Add(CorpusEntry entry) { entries_.push_back(std::move(entry)); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const CorpusEntry& operator[](size_t i) const { return entries_[i]; }

  // Writes MANIFEST + one entry-NNNN.txt per entry under dir (created if
  // needed). Overwrites any previous corpus in the directory.
  void SaveTo(const std::string& dir) const;

  // Loads a corpus saved by SaveTo. Throws std::runtime_error naming the
  // file on any missing / truncated / corrupted entry.
  static Corpus LoadFrom(const std::string& dir);

 private:
  std::vector<CorpusEntry> entries_;
};

}  // namespace ctfuzz

#endif  // SRC_FUZZ_CORPUS_H_
