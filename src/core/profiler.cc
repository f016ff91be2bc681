#include "src/core/profiler.h"

namespace ctcore {

ProfileResult Profiler::Profile(const SystemUnderTest& system, const std::set<int>& access_points,
                                const std::set<int>& io_points, uint64_t seed) const {
  ProfileResult result;

  // With nothing to instrument the run is a plain observation run: the
  // tracer stays kOff and no profiling work happens.
  const bool instrument = !access_points.empty() || !io_points.empty();
  int size = system.default_workload_size();
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    // Prepare the run's own tracer before construction so hooks fired while
    // the deployment is built are already profiled.
    auto run = system.NewRun(size, seed + static_cast<uint64_t>(iteration),
                             [&](ctrt::RunContext& context) {
                               if (!instrument) {
                                 return;
                               }
                               context.tracer().Reset(ctrt::TraceMode::kProfile);
                               context.tracer().SetProfiledPoints(access_points, io_points);
                             });
    ctrt::AccessTracer& tracer = run->context().tracer();
    RunOutcome outcome = Executor::Execute(*run, /*baseline=*/nullptr);
    Executor::AccumulateBaseline(run->cluster().logs(), &result.baseline);
    ++result.iterations;
    if (instrument) {
      ++result.instrumented_runs;
    }

    if (iteration == 0) {
      result.normal_duration_ms = outcome.virtual_duration_ms;
    }

    size_t before =
        result.dynamic_access_points.size() + result.dynamic_io_points.size();
    for (const auto& [point, hits] : tracer.dynamic_access_points()) {
      result.dynamic_access_points.insert(point);
    }
    for (const auto& [point, hits] : tracer.dynamic_io_points()) {
      result.dynamic_io_points.insert(point);
    }
    size_t after = result.dynamic_access_points.size() + result.dynamic_io_points.size();
    if (iteration > 0 && after == before) {
      break;  // Fixpoint: doubling the workload found nothing new.
    }
    size *= 2;
  }

  return result;
}

}  // namespace ctcore
