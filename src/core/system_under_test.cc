#include "src/core/system_under_test.h"

namespace ctcore {

std::unique_ptr<WorkloadRun> SystemUnderTest::NewRun(int workload_size, uint64_t /*seed*/,
                                                     const ContextPrepare& prepare) const {
  auto context = std::make_unique<ctrt::RunContext>();
  if (prepare) {
    prepare(*context);
  }
  // Bind during construction: hooks fired while the deployment is being built
  // land in the run's own tracer, not in whatever context the calling thread
  // happened to carry.
  ctrt::ScopedRunContext bind(*context);
  std::unique_ptr<WorkloadRun> run = MakeRun(workload_size);
  run->context_ = std::move(context);
  return run;
}

}  // namespace ctcore
