// Ablation beyond the paper: the pre-read wait window (§3.2.2). After the
// shutdown RPC, the trigger waits (10 s default) so failure handling and
// recovery run *before* the interrupted read resumes. Without the wait the
// read executes against pre-recovery state and most pre-read bugs vanish;
// with a window shorter than failure-detection-plus-recovery they reappear
// only partially.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Ablation — pre-read wait window vs bugs detected (mini-YARN)");
  std::printf("%10s %8s %14s\n", "wait (ms)", "bugs", "test virt h");
  for (ctsim::Time wait_ms : {0ull, 100ull, 1000ull, 5000ull, 10000ull, 20000ull}) {
    ctyarn::YarnSystem yarn;
    ctcore::DriverOptions options;
    options.pre_read_wait_ms = wait_ms;
    options.observer = observation.ObserverFor("yarn/wait" + std::to_string(wait_ms));
    ctcore::CrashTunerDriver driver;
    ctcore::SystemReport report = driver.Run(yarn, options);
    std::printf("%10llu %8zu %14.2f%s\n", static_cast<unsigned long long>(wait_ms),
                report.bugs.size(), report.test_virtual_hours,
                wait_ms == 10000 ? "   <- paper's default" : "");
  }
  ctbench::PrintRule();
  std::printf("The wait must outlast graceful-leave processing and the recovery actions\n"
              "that invalidate the read (remove the node, fail the attempt, kill the\n"
              "container); post-write bugs are crash-immediate and survive wait=0.\n");

  return observation.Write() ? 0 : 1;
}
