// Ablation beyond the paper: the call-string bound of Definition 1. The
// paper fixes context depth at 5; this bench sweeps the bound and reports
// how many dynamic crash points (and detected bugs) each depth yields.
// Depth 1 merges contexts (losing e.g. the second YARN-9164 exposure);
// deeper bounds split them at the cost of more injection runs.
#include "bench/bench_util.h"
#include "src/runtime/tracer.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Ablation — call-stack depth bound vs dynamic crash points (mini-YARN)");
  std::printf("%5s %16s %10s %14s\n", "depth", "dynamic points", "bugs", "test virt h");
  for (int depth = 1; depth <= 6; ++depth) {
    // Every per-run tracer the driver creates inherits the swept default.
    ctrt::AccessTracer::SetDefaultStackDepth(depth);
    ctyarn::YarnSystem yarn;
    ctcore::CrashTunerDriver driver;
    ctcore::DriverOptions options;
    options.observer = observation.ObserverFor("yarn/depth" + std::to_string(depth));
    ctcore::SystemReport report = driver.Run(yarn, options);
    std::printf("%5d %16d %10zu %14.2f%s\n", depth, report.dynamic_crash_points,
                report.bugs.size(), report.test_virtual_hours,
                depth == ctrt::AccessTracer::kMaxDepth ? "   <- paper's bound" : "");
  }
  ctrt::AccessTracer::SetDefaultStackDepth(ctrt::AccessTracer::kMaxDepth);

  return observation.Write() ? 0 : 1;
}
