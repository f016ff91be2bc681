// Interface every mini system implements so the CrashTuner pipeline (and the
// baseline injectors) can drive it without knowing its internals.
#ifndef SRC_CORE_SYSTEM_UNDER_TEST_H_
#define SRC_CORE_SYSTEM_UNDER_TEST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/model/program_model.h"
#include "src/runtime/run_context.h"
#include "src/sim/cluster.h"

namespace ctcore {

// One deployment of the system plus one sized workload, ready to run. The
// run owns its cluster and its runtime context (tracer); all faults and
// oracles act through this handle, and nothing about the run survives it —
// an armed trigger dies with the run instead of leaking into the next one.
class WorkloadRun {
 public:
  virtual ~WorkloadRun() = default;

  // The run's private runtime state. Executor::Execute binds it to the
  // executing thread for the duration of the run; testers arm triggers on
  // context().tracer() before executing.
  ctrt::RunContext& context() { return *context_; }

  virtual ctsim::Cluster& cluster() = 0;

  // Schedules the workload onto the (already started) cluster.
  virtual void Start() = 0;

  // Job status, as the system's own client would report it.
  virtual bool JobFinished() const = 0;
  virtual bool JobFailed() const = 0;

  // Virtual time a fault-free run of this size is expected to take; the
  // executor uses it to size oracle deadlines.
  virtual ctsim::Time ExpectedDurationMs() const = 0;

 private:
  friend class SystemUnderTest;
  std::unique_ptr<ctrt::RunContext> context_;
};

// Post-hoc triage entry: maps an oracle-detected failure back to the upstream
// issue it reproduces (used by reports; detection never consults this).
struct KnownBug {
  std::string bug_id;       // e.g. "YARN-9164"
  std::string priority;     // Critical / Major / Trivial / Normal
  std::string scenario;     // "pre-read" / "post-write"
  std::string status;       // Fixed / Unresolved
  std::string symptom;      // Table 5 symptom text
  std::string metainfo;     // Table 5 meta-info column
  std::string location_substr;   // matches StaticCrashPoint::location
  std::string exception_substr;  // matches an uncommon-exception message
};

class SystemUnderTest {
 public:
  virtual ~SystemUnderTest() = default;

  virtual std::string name() const = 0;
  virtual std::string version() const = 0;        // Table 4 column 2
  virtual std::string workload_name() const = 0;  // Table 4 column 3

  // The static program model (types, fields, access points, log bindings).
  virtual const ctmodel::ProgramModel& model() const = 0;

  // Optional hook run against the fresh RunContext before the deployment is
  // built — e.g. the profiler switches the tracer to kProfile here so hooks
  // fired during construction are already recorded.
  using ContextPrepare = std::function<void(ctrt::RunContext&)>;

  // Builds a fresh deployment + workload bound to its own RunContext.
  // `workload_size` scales the job (the profiler doubles it until the
  // dynamic-point set stabilizes). The context is bound to the calling thread
  // while the deployment is constructed, then owned by the returned run.
  // Nothing in a run draws a random number, so the seed does not change the
  // run. It is kept for the callers that still pass one, perfbench/ among
  // them.
  std::unique_ptr<WorkloadRun> NewRun(int workload_size, uint64_t /*seed*/,
                                      const ContextPrepare& prepare = nullptr) const;

  virtual int default_workload_size() const { return 1; }

  // Deployment scale multiplier (the --scale campaign knob). Each system
  // multiplies its replicated-role count (workers, datanodes, quorum peers,
  // region servers + regions, gossip members) and its default workload size
  // by this factor when building a run. Scale 1 is the paper's deployment and
  // every report and trace hash at scale 1 is byte-identical to the unscaled
  // code. Set it before handing the system to a driver; runs already built
  // keep the scale they were built with.
  void set_scale(int scale) { scale_ = scale < 1 ? 1 : scale; }
  int scale() const { return scale_; }

  // Triage table for report generation.
  virtual std::vector<KnownBug> known_bugs() const { return {}; }

 protected:
  // System-specific deployment factory; called by NewRun with the run's
  // context already bound to the calling thread.
  virtual std::unique_ptr<WorkloadRun> MakeRun(int workload_size) const = 0;

  // Helper for default_workload_size overrides: the paper's workload size
  // times the deployment scale, so load grows with the cluster.
  int Scaled(int base) const { return base * scale_; }

 private:
  int scale_ = 1;
};

}  // namespace ctcore

#endif  // SRC_CORE_SYSTEM_UNDER_TEST_H_
