// Phase spans: named intervals on both clocks, nested into a hierarchy.
//
// A SpanEvent captures one phase of one run — boot, workload, window-arm,
// injection, or recovery-check — or one driver phase, with its extent in
// *virtual* time (read off the run's event loop; deterministic) and in
// *wall* time (steady_clock; nondeterministic, kept strictly out of every
// hash and deterministic snapshot section). Spans nest: the observer assigns
// ids in open order and records the id of the enclosing open span as the
// parent, so an injection span sits under the phase it fired in. Component
// sweeps are not spans; they are dwell marks (ctrt::MarkComponent).
// ScopedSpan is the RAII recorder: construction opens the span, destruction
// closes it, so a span stays correct even when the body unwinds through
// NodeCrashedSignal.
#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctsim {
class EventLoop;
}  // namespace ctsim

namespace ctobs {

class RunObserver;

struct SpanEvent {
  std::string name;      // "boot", "workload", "inject:<model span>", ...
  std::string category;  // "phase" | "injection" | "driver"
  uint64_t id = 0;         // 1-based, assigned by the observer in open order
  uint64_t parent_id = 0;  // id of the enclosing open span (0 = root)
  uint64_t sim_begin_ms = 0;
  uint64_t sim_end_ms = 0;
  // steady_clock nanoseconds; meaningful only as differences and only
  // within one process. Never hashed, never in deterministic output.
  uint64_t wall_begin_ns = 0;
  uint64_t wall_end_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;

  uint64_t sim_duration_ms() const { return sim_end_ms - sim_begin_ms; }
  double wall_seconds() const {
    return static_cast<double>(wall_end_ns - wall_begin_ns) / 1e9;
  }
};

// Opens a span on construction and records it into the observer on
// destruction. A null observer, a disabled observer, or a null loop
// (driver-level spans have no virtual clock; their sim extent stays 0..0)
// all degrade gracefully; the disabled case records nothing at all, so
// instrumented code paths cost two branches when observability is off.
class ScopedSpan {
 public:
  // The strings are copied only when the observer is recording, so an
  // unobserved span allocates nothing.
  ScopedSpan(RunObserver* observer, const ctsim::EventLoop* loop, std::string_view name,
             std::string_view category);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a key/value pair to the span (visible in the Chrome trace).
  void AddArg(std::string key, std::string value);

  // Id assigned by the observer (0 when recording is off).
  uint64_t id() const { return event_.id; }

 private:
  RunObserver* observer_ = nullptr;  // null when recording is off
  const ctsim::EventLoop* loop_ = nullptr;
  SpanEvent event_;
};

}  // namespace ctobs

#endif  // SRC_OBS_SPAN_H_
