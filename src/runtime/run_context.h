// Per-run runtime state.
//
// The tracer used to be a process-wide singleton that every run Reset() by
// convention — which serialized the whole Phase-2 injection campaign and let a
// forgotten reset leak an armed trigger into the next run. A RunContext holds
// the run's AccessTracer and nothing else; the run owns the context, so
// trigger state cannot outlive the run it was armed for.
//
// Hooks in mini-system code still call AccessTracer::Instance() (through the
// CT_* macros), which now resolves to the context bound to the calling thread.
// Executor::Execute binds the run's context for the duration of the run, so a
// worker thread executing run A and a worker executing run B each see their
// own tracer. Threads with no bound context fall back to a per-thread default
// context (mode kOff), which keeps direct tracer use in tests and tools
// working unchanged.
#ifndef SRC_RUNTIME_RUN_CONTEXT_H_
#define SRC_RUNTIME_RUN_CONTEXT_H_

#include "src/runtime/tracer.h"

namespace ctrt {

class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  AccessTracer& tracer() { return tracer_; }
  const AccessTracer& tracer() const { return tracer_; }

  // The context bound to the calling thread, or the thread's default context
  // if none is bound. Never null.
  static RunContext& Current();

 private:
  AccessTracer tracer_;
};

// RAII binder: makes `context` the calling thread's current context for the
// enclosing scope, restoring the previous binding on exit. Executor::Execute
// is the canonical user; SystemUnderTest::NewRun binds during construction so
// hooks fired while the deployment is being built land in the run's tracer.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(RunContext& context);
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext* previous_;
};

}  // namespace ctrt

#endif  // SRC_RUNTIME_RUN_CONTEXT_H_
