// Runtime instrumentation: the Javassist substitute.
//
// Mini-system code paths are compiled with explicit hooks at every modelled
// access point (CT_PRE_READ before a meta-info-candidate read, CT_POST_WRITE
// after a write, CT_IO_BEGIN/END around IO calls) plus ScopedFrame markers
// that maintain the bounded call stack of Definition 1. The AccessTracer
// routes hook firings to whichever phase is active:
//   kOff      — hooks are no-ops (plain workload runs, baselines' timing runs)
//   kProfile  — records ⟨static point, call stack⟩ dynamic points (§3.1.3)
//   kTrigger  — fires the installed callback the first time one armed dynamic
//               point is hit (§3.2.2); the callback performs the crash or
//               shutdown and may abort the current handler by throwing
//               ctsim::NodeCrashedSignal.
//
// The hooks are free calls in system code (like the injected RPCs in the
// paper), so Instance() routes them to the AccessTracer of the RunContext
// bound to the calling thread (see run_context.h). Each WorkloadRun owns its
// own tracer, which is what lets the injection campaign run one simulation per
// worker thread without the runs stepping on each other's trigger state.
#ifndef SRC_RUNTIME_TRACER_H_
#define SRC_RUNTIME_TRACER_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/model/program_model.h"

namespace ctrt {

// Bounded call stack: frame strings from the innermost method outward, depth
// capped at kMaxDepth (the paper bounds call strings to 5; §3.1.3).
struct CallStack {
  static constexpr int kMaxDepth = 5;
  std::vector<std::string> frames;

  // Canonical key "inner<outer<..." used to identify dynamic points.
  std::string Key() const;
};

// A dynamic program point: ⟨static point id, calling context⟩ (Definition 1).
struct DynamicPoint {
  int point_id = -1;
  std::string stack_key;

  bool operator<(const DynamicPoint& other) const {
    if (point_id != other.point_id) {
      return point_id < other.point_id;
    }
    return stack_key < other.stack_key;
  }
  bool operator==(const DynamicPoint& other) const {
    return point_id == other.point_id && stack_key == other.stack_key;
  }
};

// Everything a trigger callback needs about the hook that fired.
struct AccessEvent {
  int point_id = -1;
  ctmodel::AccessKind kind = ctmodel::AccessKind::kRead;
  std::string value;  // runtime meta-info value being accessed
  std::string stack_key;
};

enum class TraceMode { kOff, kProfile, kTrigger };

class AccessTracer {
 public:
  AccessTracer();
  AccessTracer(const AccessTracer&) = delete;
  AccessTracer& operator=(const AccessTracer&) = delete;

  // The tracer of the calling thread's current RunContext (a per-thread
  // default context when no run is bound). Hook macros go through this.
  static AccessTracer& Instance();

  // Clears all per-run state and switches mode.
  void Reset(TraceMode mode);
  TraceMode mode() const { return mode_; }

  // --- Profile phase -------------------------------------------------------
  // Restricts recording to the given static crash points (output of the
  // static analysis); hits elsewhere are ignored, mirroring the fact that the
  // paper only instruments static crash points.
  void SetProfiledPoints(std::set<int> access_points, std::set<int> io_points);
  const std::map<DynamicPoint, int>& dynamic_access_points() const { return dynamic_access_; }
  const std::map<DynamicPoint, int>& dynamic_io_points() const { return dynamic_io_; }

  // --- Trigger phase -------------------------------------------------------
  using TriggerFn = std::function<void(const AccessEvent&)>;
  // Arms one dynamic access point. The callback runs at the first hit only.
  void ArmAccessTrigger(DynamicPoint point, TriggerFn fn);
  // Re-arms a new point after a trigger fired — the multi-crash extension
  // chains a second injection onto the same run. Safe to call from inside a
  // trigger callback.
  void RearmAccessTrigger(DynamicPoint point, TriggerFn fn);
  // Arms one dynamic IO point; `before` selects the begin or end hook.
  void ArmIoTrigger(DynamicPoint point, bool before, TriggerFn fn);
  bool trigger_fired() const { return trigger_fired_; }
  const std::optional<AccessEvent>& fired_event() const { return fired_event_; }

  // --- Hooks (called from instrumented system code) -------------------------
  void PreRead(int point_id, const std::string& value);
  void PostWrite(int point_id, const std::string& value);
  void IoBegin(int point_id);
  void IoEnd(int point_id);

  // --- Call-stack maintenance ----------------------------------------------
  // `frame` is kept as a pointer, so it must outlive the frame: every
  // CT_FRAME passes a string literal.
  void PushFrame(const char* frame);
  void PopFrame();
  CallStack CaptureStack() const;

  // Process-wide default depth newly constructed tracers start from. The depth
  // ablation sets this before a driver run so every per-run tracer the run
  // creates inherits the swept bound; callers restore kMaxDepth afterwards.
  static void SetDefaultStackDepth(int depth);
  static int DefaultStackDepth();

  // Counters.
  uint64_t hook_firings() const { return hook_firings_; }

 private:
  void OnAccess(int point_id, ctmodel::AccessKind kind, const std::string& value);
  void OnIo(int point_id, bool before);

  TraceMode mode_ = TraceMode::kOff;
  std::vector<const char*> stack_;
  std::set<int> profiled_access_points_;
  std::set<int> profiled_io_points_;
  std::map<DynamicPoint, int> dynamic_access_;
  std::map<DynamicPoint, int> dynamic_io_;

  std::optional<DynamicPoint> armed_access_;
  std::optional<DynamicPoint> armed_io_;
  bool armed_io_before_ = true;
  TriggerFn trigger_fn_;
  bool trigger_fired_ = false;
  std::optional<AccessEvent> fired_event_;
  uint64_t hook_firings_ = 0;
  int stack_depth_;
};

// RAII frame marker used at method entry in mini-system code. The tracer is
// resolved once at construction and cached so push and pop always hit the
// same tracer even if the thread's context binding changes mid-scope.
class ScopedFrame {
 public:
  explicit ScopedFrame(const char* frame) : tracer_(&AccessTracer::Instance()) {
    tracer_->PushFrame(frame);
  }
  ~ScopedFrame() { tracer_->PopFrame(); }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  AccessTracer* tracer_;
};

}  // namespace ctrt

// Hook macros keep call sites terse and greppable in the mini systems.
#define CT_FRAME(name) ctrt::ScopedFrame ct_scoped_frame_(name)
#define CT_PRE_READ(point, value) ctrt::AccessTracer::Instance().PreRead((point), (value))
#define CT_POST_WRITE(point, value) ctrt::AccessTracer::Instance().PostWrite((point), (value))
#define CT_IO_BEGIN(point) ctrt::AccessTracer::Instance().IoBegin(point)
#define CT_IO_END(point) ctrt::AccessTracer::Instance().IoEnd(point)

#endif  // SRC_RUNTIME_TRACER_H_
