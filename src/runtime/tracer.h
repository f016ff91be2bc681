// Runtime instrumentation: the Javassist substitute.
//
// Mini-system code paths are compiled with explicit hooks at every modelled
// access point (CT_PRE_READ before a meta-info-candidate read, CT_POST_WRITE
// after a write, CT_IO_BEGIN/END around IO calls) plus ScopedFrame markers
// that maintain the bounded call stack of Definition 1. Every hook reaches one
// hit path, which does what the active mode asks:
//   kOff      — nothing (plain workload runs, baselines' timing runs)
//   kProfile  — records ⟨static point, call string⟩ dynamic points (§3.1.3)
//   kTrigger  — runs the armed callback the first time the one armed dynamic
//               point is hit at the armed hook (§3.2.2); the callback performs
//               the crash or shutdown and may abort the current handler by
//               throwing ctsim::NodeCrashedSignal.
//
// The hooks are free calls in system code (like the injected RPCs in the
// paper), so Instance() routes them to the AccessTracer of the RunContext
// bound to the calling thread (see run_context.h). Each WorkloadRun owns its
// own tracer, which is what lets the injection campaign run one simulation per
// worker thread without the runs stepping on each other's trigger state.
#ifndef SRC_RUNTIME_TRACER_H_
#define SRC_RUNTIME_TRACER_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace ctrt {

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

enum class TraceMode { kOff, kProfile, kTrigger };

// The hook a trigger is armed at: an access (PreRead or PostWrite), or the
// begin or end side of an IO call.
enum class Hook { kAccess, kIoBegin, kIoEnd };

class AccessTracer {
 public:
  // Call strings keep at most this many frames, innermost first (the paper
  // bounds them to 5; §3.1.3).
  static constexpr int kMaxDepth = 5;

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
  // paper only instruments static crash points. IO points record at their
  // begin hook.
  void SetProfiledPoints(std::set<int> access_points, std::set<int> io_points);
  const std::set<DynamicPoint>& dynamic_access_points() const { return dynamic_access_; }
  const std::set<DynamicPoint>& dynamic_io_points() const { return dynamic_io_; }

  // --- Trigger phase -------------------------------------------------------
  // Receives the accessed runtime value ("" at an IO hook).
  using TriggerFn = std::function<void(const std::string& value)>;
  // Arms `point` at `hook`, replacing whatever was armed, and clears
  // trigger_fired(). The callback runs at the first hit only. Arming from
  // inside a firing callback chains the next point onto the same run, as
  // multi-crash pairs do.
  void Arm(Hook hook, DynamicPoint point, TriggerFn fn);
  bool trigger_fired() const { return trigger_fired_; }

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
  // The innermost frames, at most the tracer's depth, joined as the canonical
  // dynamic-point key "inner<outer<...".
  std::string StackKey() const;

  // Process-wide default depth newly constructed tracers start from. The depth
  // ablation sets this before a driver run so every per-run tracer the run
  // creates inherits the swept bound; callers restore kMaxDepth afterwards.
  static void SetDefaultStackDepth(int depth);
  static int DefaultStackDepth();

 private:
  void OnHook(Hook hook, int point_id, const std::string& value);

  TraceMode mode_ = TraceMode::kOff;
  std::vector<const char*> stack_;
  std::set<int> profiled_access_points_;
  std::set<int> profiled_io_points_;
  std::set<DynamicPoint> dynamic_access_;
  std::set<DynamicPoint> dynamic_io_;

  Hook armed_hook_ = Hook::kAccess;
  DynamicPoint armed_;
  TriggerFn trigger_fn_;  // empty when nothing is armed or the trigger fired
  bool trigger_fired_ = false;
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
