// Event-trace hashing.
//
// A run's trace is the totally ordered list of everything the scheduler did:
// message deliveries and drops, timer firings, crashes, shutdowns, and
// partition windows. Nothing in a run draws a random number, so re-executing
// a run reproduces its trace, and the trace's hash is the reproduction check:
// two runs with equal hashes scheduled the same events in the same order.
// The recorder folds each event's line into the hash as it is recorded, so
// tracing a run costs no allocation per event. The hot events (message
// deliveries and drops, timer firings) fold each interned symbol, and their
// kind, in one step through its FNV-1a fold (ctcommon::FoldOf); the fold
// gives the same hash as feeding the text byte by byte.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/fnv.h"
#include "src/sim/symbol.h"

namespace ctsim {

// The kind of a message event's trace line.
enum class MessageEvent { kDeliver, kDropDead, kDropPartition };

// Symbols passed to one recorder must come from one intern table, the run's
// cluster's.
class TraceRecorder {
 public:
  // FNV-1a 64 over the recorded events' lines, "<at> <kind> <detail>\n" each.
  uint64_t hash() const { return hash_.value(); }
  // Events recorded so far.
  size_t size() const { return size_; }

  // Records one event at virtual ms `at`, hashing its text byte by byte: the
  // rare kinds (start, crash, shutdown, partition, cluster-down).
  void Record(uint64_t at, const char* kind, std::string_view detail) {
    AddTime(at);
    hash_.AddByte(' ');
    hash_.Add(kind);
    hash_.AddByte(' ');
    hash_.Add(detail);
    hash_.AddByte('\n');
    ++size_;
  }

  // Records "<at> <kind> <from>><to> <method>".
  void RecordMessage(uint64_t at, MessageEvent kind, Symbol from, Symbol to, Symbol method) {
    AddTime(at);
    hash_.Add(KindFold(kind));
    hash_.Add(SymbolFold(from));
    hash_.AddByte('>');
    hash_.Add(SymbolFold(to));
    hash_.AddByte(' ');
    hash_.Add(SymbolFold(method));
    hash_.AddByte('\n');
    ++size_;
  }

  // Records "<at> timer <owner>": one firing of a node's timer.
  void RecordTimer(uint64_t at, Symbol owner) {
    static const ctcommon::FnvFold& timer = ctcommon::FoldOf(" timer ");
    AddTime(at);
    hash_.Add(timer);
    hash_.Add(SymbolFold(owner));
    hash_.AddByte('\n');
    ++size_;
  }

 private:
  // " <kind> ", indexed by MessageEvent.
  static const ctcommon::FnvFold& KindFold(MessageEvent kind) {
    static const std::array<const ctcommon::FnvFold*, 3> folds = {
        &ctcommon::FoldOf(" deliver "), &ctcommon::FoldOf(" drop.dead "),
        &ctcommon::FoldOf(" drop.partition ")};
    return *folds[static_cast<size_t>(kind)];
  }

  // The fold of `symbol`'s text, looked up in the process-wide cache (which
  // takes its mutex) once per symbol per recorder.
  const ctcommon::FnvFold& SymbolFold(Symbol symbol) {
    if (symbol.id() >= fold_by_symbol_.size()) {
      fold_by_symbol_.resize(symbol.id() + 1, nullptr);
    }
    const ctcommon::FnvFold*& fold = fold_by_symbol_[symbol.id()];
    if (fold == nullptr) {
      fold = &ctcommon::FoldOf(symbol.str());
    }
    return *fold;
  }

  // The decimal digits of `at`, byte by byte.
  void AddTime(uint64_t at) {
    char digits[20];
    const char* end = std::to_chars(digits, digits + sizeof(digits), at).ptr;
    hash_.Add(std::string_view(digits, static_cast<size_t>(end - digits)));
  }

  ctcommon::Fnv1a hash_;
  size_t size_ = 0;
  std::vector<const ctcommon::FnvFold*> fold_by_symbol_;  // symbol id -> fold
};

}  // namespace ctsim

#endif  // SRC_SIM_TRACE_H_
