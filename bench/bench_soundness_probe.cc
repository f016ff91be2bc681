// §4.3.1 soundness probe + optimization ablation. The paper fault-injects
// 3000 optimized-out crash points and 3000 non-meta-info access points and
// finds no new bugs. Here we disable the three pruning optimizations (so
// every previously pruned, executable point is armed and tested) and run the
// full pipeline: the bug set must not grow, only the testing effort.
#include "bench/bench_util.h"

static ctcore::SystemReport RunWith(const ctcore::DriverOptions& options) {
  ctyarn::YarnSystem yarn;
  ctcore::CrashTunerDriver driver;
  return driver.Run(yarn, options);
}

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("§4.3.1 — soundness probe / optimization ablation (mini-YARN)");

  ctcore::DriverOptions baseline;
  baseline.observer = observation.ObserverFor("yarn/with-opts");
  ctcore::SystemReport with_opts = RunWith(baseline);

  ctcore::DriverOptions no_opts;
  no_opts.crash_point_options.prune = false;
  no_opts.observer = observation.ObserverFor("yarn/no-opts");
  ctcore::SystemReport without_opts = RunWith(no_opts);

  std::printf("%-28s %10s %10s\n", "", "with-opts", "no-opts");
  std::printf("%-28s %10d %10d\n", "static crash points", with_opts.static_crash_points,
              without_opts.static_crash_points);
  std::printf("%-28s %10d %10d\n", "dynamic crash points", with_opts.dynamic_crash_points,
              without_opts.dynamic_crash_points);
  std::printf("%-28s %10zu %10zu\n", "injection runs", with_opts.injections.size(),
              without_opts.injections.size());
  std::printf("%-28s %10.2f %10.2f\n", "test virtual hours", with_opts.test_virtual_hours,
              without_opts.test_virtual_hours);
  std::printf("%-28s %10zu %10zu\n", "bugs found", with_opts.bugs.size(),
              without_opts.bugs.size());

  // The probe's claim: optimized-out points expose nothing new.
  std::set<std::string> base_ids;
  for (const auto& bug : with_opts.bugs) {
    base_ids.insert(bug.bug_id);
  }
  int new_from_pruned = 0;
  for (const auto& bug : without_opts.bugs) {
    if (base_ids.count(bug.bug_id) == 0) {
      ++new_from_pruned;
      std::printf("  UNEXPECTED new bug from pruned point: %s @ %s\n", bug.bug_id.c_str(),
                  bug.location.c_str());
    }
  }
  ctbench::PrintRule();
  std::printf("new bugs from previously-pruned points: %d (paper: 0 from 3000 sampled)\n",
              new_from_pruned);
  std::printf("pruning buys %.1f%% fewer injection runs at zero detection loss\n",
              100.0 * (1.0 - static_cast<double>(with_opts.injections.size()) /
                                 static_cast<double>(without_opts.injections.size())));

  return observation.Write() ? 0 : 1;
}
