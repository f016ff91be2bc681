// Event-trace hashing.
//
// A run's trace is the totally ordered list of everything the scheduler did:
// message deliveries and drops, timer firings, crashes, shutdowns, and
// partition windows. Nothing in a run draws a random number, so re-executing
// a run reproduces its trace, and the trace's hash is the reproduction check:
// two runs with equal hashes scheduled the same events in the same order.
// The recorder folds each event's line into the hash as it is recorded, so
// tracing a run costs no allocation per event.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "src/common/fnv.h"

namespace ctsim {

class TraceRecorder {
 public:
  // FNV-1a 64 over the recorded events' lines, "<at> <kind> <detail>\n" each.
  uint64_t hash() const { return hash_.value(); }
  // Events recorded so far.
  size_t size() const { return size_; }

  // Records one event at virtual ms `at`. The detail may be passed in pieces,
  // which are hashed in place as if concatenated.
  void Record(uint64_t at, const char* kind, std::string_view detail) {
    Record(at, kind, {detail});
  }
  void Record(uint64_t at, const char* kind, std::initializer_list<std::string_view> detail) {
    char digits[20];
    const char* end = std::to_chars(digits, digits + sizeof(digits), at).ptr;
    hash_.Add(std::string_view(digits, static_cast<size_t>(end - digits)));
    hash_.AddByte(' ');
    hash_.Add(kind);
    hash_.AddByte(' ');
    for (std::string_view piece : detail) {
      hash_.Add(piece);
    }
    hash_.AddByte('\n');
    ++size_;
  }

 private:
  ctcommon::Fnv1a hash_;
  size_t size_ = 0;
};

}  // namespace ctsim

#endif  // SRC_SIM_TRACE_H_
