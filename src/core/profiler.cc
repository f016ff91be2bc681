#include "src/core/profiler.h"

namespace ctcore {

namespace {

// Adds the records of `from` whose static id is in `ids` to `to`; true if
// one of them was new.
bool AddPoints(const std::set<ctrt::DynamicPoint>& from, const std::set<int>& ids,
               std::set<ctrt::DynamicPoint>* to) {
  bool added = false;
  for (const ctrt::DynamicPoint& point : from) {
    if (ids.count(point.point_id) > 0) {
      added = to->insert(point).second || added;
    }
  }
  return added;
}

}  // namespace

std::unique_ptr<WorkloadRun> Profiler::NewRun(const SystemUnderTest& system, int workload_size,
                                              uint64_t seed, const std::set<int>& access_points,
                                              const std::set<int>& io_points) {
  return system.NewRun(workload_size, seed, [&](ctrt::RunContext& context) {
    if (access_points.empty() && io_points.empty()) {
      return;
    }
    context.tracer().Reset(ctrt::TraceMode::kProfile);
    context.tracer().SetProfiledPoints(access_points, io_points);
  });
}

ProfileSample Profiler::Sample(WorkloadRun& run, const RunOutcome& outcome) {
  ProfileSample sample;
  const ctrt::AccessTracer& tracer = run.context().tracer();
  sample.access_points = tracer.dynamic_access_points();
  sample.io_points = tracer.dynamic_io_points();
  Executor::AccumulateBaseline(run.cluster().logs(), &sample.baseline);
  sample.duration_ms = outcome.virtual_duration_ms;
  return sample;
}

ProfileResult Profiler::Profile(const SystemUnderTest& system, const std::set<int>& access_points,
                                const std::set<int>& io_points, uint64_t seed) const {
  auto run = NewRun(system, system.default_workload_size(), seed, access_points, io_points);
  const RunOutcome outcome = Executor::Execute(*run, /*baseline=*/nullptr);
  return Profile(system, access_points, io_points, seed, Sample(*run, outcome));
}

ProfileResult Profiler::Profile(const SystemUnderTest& system, const std::set<int>& access_points,
                                const std::set<int>& io_points, uint64_t seed,
                                ProfileSample first) const {
  ProfileResult result;

  // With nothing to instrument the runs are plain observation runs: the
  // tracer stays kOff and no profiling work happens.
  const bool instrument = !access_points.empty() || !io_points.empty();
  int size = system.default_workload_size();
  ProfileSample sample = std::move(first);
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    if (iteration > 0) {
      auto run =
          NewRun(system, size, seed + static_cast<uint64_t>(iteration), access_points, io_points);
      const RunOutcome outcome = Executor::Execute(*run, /*baseline=*/nullptr);
      sample = Sample(*run, outcome);
    }
    const std::set<std::string>& types = sample.baseline.common_exception_types;
    result.baseline.common_exception_types.insert(types.begin(), types.end());
    ++result.iterations;
    if (instrument) {
      ++result.instrumented_runs;
    }

    if (iteration == 0) {
      result.normal_duration_ms = sample.duration_ms;
    }

    const bool added_access =
        AddPoints(sample.access_points, access_points, &result.dynamic_access_points);
    const bool added_io = AddPoints(sample.io_points, io_points, &result.dynamic_io_points);
    if (iteration > 0 && !added_access && !added_io) {
      break;  // Fixpoint: doubling the workload found nothing new.
    }
    size *= 2;
  }

  return result;
}

}  // namespace ctcore
