#include "src/sim/trace.h"

#include <charconv>
#include <utility>

#include "src/common/check.h"

namespace ctsim {

namespace {

std::string EventLine(const TraceEvent& event) {
  return std::to_string(event.at) + " " + event.kind + " " + event.detail + "\n";
}

// Feeds the bytes of EventLine — "<at> <kind> <detail>\n", the detail given
// in pieces — into `hash` without building the line.
void HashEventLine(ctcommon::Fnv1a* hash, uint64_t at, std::string_view kind,
                   const std::string_view* pieces, size_t count) {
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), at).ptr;
  hash->Add(std::string_view(digits, static_cast<size_t>(end - digits)));
  hash->AddByte(' ');
  hash->Add(kind);
  hash->AddByte(' ');
  for (size_t i = 0; i < count; ++i) {
    hash->Add(pieces[i]);
  }
  hash->AddByte('\n');
}

}  // namespace

void Trace::Truncate(size_t n) {
  if (n < events_.size()) {
    events_.resize(n);
  }
}

uint64_t Trace::Hash() const {
  ctcommon::Fnv1a hash;
  for (const auto& event : events_) {
    const std::string_view detail = event.detail;
    HashEventLine(&hash, event.at, event.kind, &detail, 1);
  }
  return hash.value();
}

const Trace& TraceRecorder::trace() const {
  CT_CHECK_MSG(keep_events_, "this TraceRecorder only hashes; it keeps no events");
  return trace_;
}

void TraceRecorder::RecordPieces(uint64_t at, const char* kind, const std::string_view* pieces,
                                 size_t count) {
  HashEventLine(&hash_, at, kind, pieces, count);
  ++size_;
  if (!keep_events_) {
    return;
  }
  TraceEvent event;
  event.at = at;
  event.kind = kind;
  for (size_t i = 0; i < count; ++i) {
    event.detail += pieces[i];
  }
  if (expected_ != nullptr) {
    size_t index = trace_.size();
    if (index >= expected_->size()) {
      throw TraceDivergence("replay diverged at event " + std::to_string(index) +
                            ": recording exhausted (truncated trace?), run produced \"" +
                            EventLine(event) + "\"");
    }
    const TraceEvent& want = expected_->events()[index];
    if (!(want == event)) {
      throw TraceDivergence("replay diverged at event " + std::to_string(index) +
                            ": recorded \"" + EventLine(want) + "\" but run produced \"" +
                            EventLine(event) + "\"");
    }
  }
  trace_.Append(std::move(event));
}

void TraceRecorder::FinishReplay() const {
  if (expected_ != nullptr && trace_.size() < expected_->size()) {
    throw TraceDivergence("replay ended after " + std::to_string(trace_.size()) +
                          " events but the recording has " + std::to_string(expected_->size()));
  }
}

}  // namespace ctsim
