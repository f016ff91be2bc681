// Profiling phase (§3.1.3).
//
// Runs the workload fault-free with the static crash points instrumented,
// recording every executed ⟨static point, call stack⟩ pair as a dynamic
// crash point. Starting from the system's default workload size, the size is
// doubled until an iteration adds no new dynamic points (the paper observes
// convergence within 2-3 iterations). The same runs also yield the
// common-exception baseline for the oracle and the fault-free runtime used
// for deadlines.
//
// Iteration 0 may be run by the caller: the driver's log run is that run
// (same size, and no run draws a random number), so the driver profiles it
// on every executable access point and hands over what it yields.
#ifndef SRC_CORE_PROFILER_H_
#define SRC_CORE_PROFILER_H_

#include <memory>
#include <set>

#include "src/core/executor.h"
#include "src/core/system_under_test.h"
#include "src/runtime/tracer.h"

namespace ctcore {

struct ProfileResult {
  std::set<ctrt::DynamicPoint> dynamic_access_points;
  std::set<ctrt::DynamicPoint> dynamic_io_points;
  OracleBaseline baseline;
  ctsim::Time normal_duration_ms = 0;  // fault-free runtime at default size
  int iterations = 0;
  // Runs that actually carried instrumentation (tracer in kProfile). With no
  // points to instrument the workload executes tracer-off. A static-only
  // pipeline profiles nothing, so it proves zero profiling workloads here.
  int instrumented_runs = 0;
};

// What one fault-free profiling run yields, kept once the run is freed.
struct ProfileSample {
  std::set<ctrt::DynamicPoint> access_points;
  std::set<ctrt::DynamicPoint> io_points;
  OracleBaseline baseline;
  ctsim::Time duration_ms = 0;
};

class Profiler {
 public:
  static constexpr int kMaxIterations = 3;

  // A fresh run whose tracer profiles `access_points` and `io_points` from
  // the start, so hooks fired while the deployment is built are recorded.
  // With both empty the tracer stays kOff.
  static std::unique_ptr<WorkloadRun> NewRun(const SystemUnderTest& system, int workload_size,
                                             uint64_t seed, const std::set<int>& access_points,
                                             const std::set<int>& io_points);
  // What a finished run yields: its recorded dynamic points, the exception
  // types it logged and its virtual duration.
  static ProfileSample Sample(WorkloadRun& run, const RunOutcome& outcome);

  // `access_points` / `io_points` are the static point ids to instrument
  // (static crash points for CrashTuner, static IO points for the IO
  // baseline; either may be empty). The workload doubles at most
  // kMaxIterations times.
  ProfileResult Profile(const SystemUnderTest& system, const std::set<int>& access_points,
                        const std::set<int>& io_points, uint64_t seed) const;
  // The same with iteration 0 already run: `first` is a fault-free run of
  // the default workload size that recorded at least `access_points` and
  // `io_points`. Its records at other points are dropped. Recording is
  // passive, so the result equals the four-argument Profile's.
  ProfileResult Profile(const SystemUnderTest& system, const std::set<int>& access_points,
                        const std::set<int>& io_points, uint64_t seed,
                        ProfileSample first) const;
};

}  // namespace ctcore

#endif  // SRC_CORE_PROFILER_H_
