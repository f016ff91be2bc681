// Event-trace record/replay.
//
// A Trace is the totally ordered list of everything the scheduler did during
// one run: message deliveries and drops, timer firings, crashes, shutdowns,
// and partition windows. Because the simulation is deterministic, a
// recorded trace is a complete reproduction recipe — and replaying a run
// against its own trace is a strong oracle: the TraceRecorder in replay mode
// verifies every emitted event against the recorded one and throws
// TraceDivergence the moment execution departs from the recording (including
// when the recording is truncated or corrupted), instead of silently
// producing a different run.
//
// Most runs only need the trace's hash, so a recorder hashes as it records
// and keeps the events themselves only for record/replay: a hash-only
// recording costs no allocation per event.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fnv.h"

namespace ctsim {

struct TraceEvent {
  uint64_t at = 0;     // virtual ms
  std::string kind;    // "deliver", "timer", "crash", "partition", ...
  std::string detail;  // kind-specific, e.g. "node1>master nodeHeartbeat"

  bool operator==(const TraceEvent& other) const {
    return at == other.at && kind == other.kind && detail == other.detail;
  }
};

class Trace {
 public:
  void Append(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Truncate(size_t n);

  // FNV-1a 64 over the events' lines, "<at> <kind> <detail>\n" each, fed
  // without building them; equal to the hash a recorder computed for the
  // same events.
  uint64_t Hash() const;

  std::vector<TraceEvent>* mutable_events() { return &events_; }

 private:
  std::vector<TraceEvent> events_;
};

// Thrown by replay-mode verification; never caught by the simulation's
// exception machinery (which only handles SimException), so a divergence
// always surfaces to the caller.
class TraceDivergence : public std::runtime_error {
 public:
  explicit TraceDivergence(const std::string& what) : std::runtime_error(what) {}
};

class TraceRecorder {
 public:
  // Record mode. Every event is folded into hash() and counted by size();
  // with `keep_events` it is also stored in trace(), for a TraceStore.
  explicit TraceRecorder(bool keep_events = false) : keep_events_(keep_events) {}
  // Replay mode: verify each emitted event against `expected` (which must
  // outlive the recorder). Events are kept, so trace() is usable here too.
  explicit TraceRecorder(const Trace* expected) : expected_(expected), keep_events_(true) {}

  // FNV-1a 64 of the events recorded so far: what trace().Hash() returns
  // for a recorder that keeps them.
  uint64_t hash() const { return hash_.value(); }
  size_t size() const { return size_; }
  // The recorded events. Fails a CT_CHECK on a hash-only recorder.
  const Trace& trace() const;

  // Records one event. The detail may be passed in pieces, which are
  // concatenated; a hash-only recorder hashes them in place.
  void Record(uint64_t at, const char* kind, std::string_view detail) {
    RecordPieces(at, kind, &detail, 1);
  }
  void Record(uint64_t at, const char* kind, std::initializer_list<std::string_view> detail) {
    RecordPieces(at, kind, detail.begin(), detail.size());
  }

  // Replay mode: throws TraceDivergence if the recording has events the run
  // never produced (a longer recording means the run diverged or the
  // recording belongs to a different run).
  void FinishReplay() const;

 private:
  void RecordPieces(uint64_t at, const char* kind, const std::string_view* pieces, size_t count);

  ctcommon::Fnv1a hash_;
  size_t size_ = 0;
  Trace trace_;
  const Trace* expected_ = nullptr;
  bool keep_events_ = false;
};

}  // namespace ctsim

#endif  // SRC_SIM_TRACE_H_
