// Tables 8 and 9: the IO-fault-injection baseline (§4.2.2). Table 8 counts
// the IO surface (Closeable classes, read/write/flush/close methods, static
// and dynamic IO call sites); Table 9 injects a crash of the executing node
// before and after every dynamic IO point. The shape to check: IO faults are
// overwhelmingly tolerated (exception handlers exist for IO), and the only
// bug within reach is YARN-9201, whose window happens to contain an IO call.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  // The IO baseline drives runs through IoFaultInjector, not the campaign
  // driver, so --metrics-out/--trace-out produce empty (but well-formed)
  // outputs; the flags are still accepted for CI uniformity.
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Table 8 — IO classes, methods and IO points");
  std::printf("%-14s %10s %11s %10s %11s\n", "System", "IOclasses", "IOmethods", "StaticIO",
              "DynamicIO");
  ctbench::PrintRule();

  std::vector<ctcore::BaselineReport> reports;
  for (const auto& system : ctbench::AllSystems()) {
    ctcore::IoFaultInjector injector;
    reports.push_back(injector.Run(*system, 20191027));
    const auto& report = reports.back();
    std::printf("%-14s %10d %11d %10d %11d\n", system->name().c_str(), report.io_classes,
                report.io_methods, report.static_io_points, report.dynamic_io_points);
  }

  ctbench::PrintHeader("Table 9 — results of IO fault injection");
  std::printf("%-14s %10s %8s %12s %6s %s\n", "System", "Virt(h)", "Trials", "FailingRuns",
              "Bugs", "Ids");
  ctbench::PrintRule();
  auto systems = ctbench::AllSystems();
  int total_bugs = 0;
  for (size_t i = 0; i < systems.size(); ++i) {
    const auto& report = reports[i];
    total_bugs += static_cast<int>(report.bugs.size());
    std::printf("%-14s %10.2f %8d %12zu %6zu ", systems[i]->name().c_str(), report.virtual_hours,
                report.trials, report.failing_trials.size(), report.bugs.size());
    for (const auto& bug : report.bugs) {
      std::printf("%s ", bug.bug_id.c_str());
    }
    std::printf("\n");
  }
  ctbench::PrintRule();
  std::printf("measured: %d issues total\n", total_bugs);
  std::printf("paper   : 1 bug (YARN-9201, 6 times); IO exceptions elsewhere are handled\n"
              "          (e.g. the HDFS LogHeaderCorruptException the standby truncates)\n");

  return observation.Write() ? 0 : 1;
}
