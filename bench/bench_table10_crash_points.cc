// Tables 10, 11 and 12: the efficiency numbers — meta-info and crash-point
// counts against the program universe (Table 10), analysis / profiling /
// testing times (Table 11), and the per-optimization pruning counts
// (Table 12) for all five systems.
#include <chrono>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  struct Row {
    std::string system;
    ctcore::SystemReport report;
    double wall_seconds;
    double parallel_test_wall;  // Phase-2 campaign at jobs=8
  };
  const int parallel_jobs = 8;
  std::vector<Row> rows;
  for (const auto& system : ctbench::AllSystems()) {
    auto start = std::chrono::steady_clock::now();
    ctcore::CrashTunerDriver driver;
    ctcore::DriverOptions serial;
    serial.observer = observation.ObserverFor(system->name());
    ctcore::SystemReport report = driver.Run(*system, serial);
    double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    // Same pipeline with the campaign fanned across workers; only the wall
    // clocks may differ between the two reports.
    ctcore::DriverOptions parallel;
    parallel.jobs = parallel_jobs;
    parallel.observer = observation.ObserverFor(system->name() + "/jobs8");
    ctcore::SystemReport par_report = driver.Run(*system, parallel);
    rows.push_back({system->name(), std::move(report), wall, par_report.test_wall_seconds});
  }

  ctbench::PrintHeader("Table 10 — types / fields / access points vs meta-info vs crash points");
  std::printf("%-14s | %6s %7s %7s | %5s %6s %6s | %6s %7s\n", "System", "Types", "Fields",
              "Access", "MetaT", "MetaF", "MetaA", "Static", "Dynamic");
  ctbench::PrintRule();
  long total_access = 0;
  long total_meta_access = 0;
  long total_static = 0;
  long total_dynamic = 0;
  for (const auto& row : rows) {
    const auto& r = row.report;
    std::printf("%-14s | %6d %7d %7d | %5d %6d %6d | %6d %7d\n", row.system.c_str(),
                r.total_types, r.total_fields, r.total_access_points, r.metainfo_types,
                r.metainfo_fields, r.metainfo_access_points, r.static_crash_points,
                r.dynamic_crash_points);
    total_access += r.total_access_points;
    total_meta_access += r.metainfo_access_points;
    total_static += r.static_crash_points;
    total_dynamic += r.dynamic_crash_points;
  }
  ctbench::PrintRule();
  std::printf("meta-info access / total access: %.2f%% (paper 1.97%%)\n",
              100.0 * total_meta_access / total_access);
  std::printf("static crash points / total:     %.2f%% (paper 0.53%%)\n",
              100.0 * total_static / total_access);
  std::printf("dynamic crash points / total:    %.2f%% (paper 0.18%%)\n",
              100.0 * total_dynamic / total_access);

  ctbench::PrintHeader("Table 11 — analysis and testing times");
  std::printf("%-14s %14s %16s %14s %12s %13s %13s\n", "System", "Analysis(s)",
              "Profile(virt s)", "Test(virt h)", "Wall(s)", "Test wall(s)", "Par wall(s)");
  for (const auto& row : rows) {
    std::printf("%-14s %14.3f %16.1f %14.2f %12.2f %13.4f %13.4f\n", row.system.c_str(),
                row.report.analysis_wall_seconds, row.report.profile_virtual_seconds,
                row.report.test_virtual_hours, row.wall_seconds, row.report.test_wall_seconds,
                row.parallel_test_wall);
  }
  std::printf("(paper: analysis < 5 min/system; testing 0.25 h (ZooKeeper) .. 17.22 h (Yarn);\n"
              " the shape — testing dominates, Yarn largest, ZooKeeper smallest — is checked.\n"
              " Par wall = the same campaign at jobs=%d, identical report by construction)\n",
              parallel_jobs);

  ctbench::PrintHeader("Table 12 — crash points pruned by each optimization");
  std::printf("%-14s %13s %8s %13s\n", "System", "Constructor", "Unused", "Sanity check");
  for (const auto& row : rows) {
    std::printf("%-14s %13d %8d %13d\n", row.system.c_str(), row.report.pruned_constructor,
                row.report.pruned_unused, row.report.pruned_sanity_checked);
  }
  ctbench::PrintRule();
  for (const auto& row : rows) {
    const auto& r = row.report;
    int pruned = r.pruned_constructor + r.pruned_unused + r.pruned_sanity_checked;
    double factor = r.static_crash_points > 0
                        ? static_cast<double>(pruned + r.static_crash_points) /
                              r.static_crash_points
                        : 0.0;
    std::printf("%-14s reduction factor %.2fx\n", row.system.c_str(), factor);
  }
  std::printf("(paper: 3.76x overall)\n");

  return observation.Write() ? 0 : 1;
}
