// Extension bench (§6 future work): pairwise multi-crash injection on
// mini-YARN. First runs the standard single-crash pipeline, then chains a
// second injection onto each run and reports which failures only appear
// under two crashes.
//
// --static-only draws the pair candidates from statically enumerated
// contexts (ContextMode::kStaticOnly) instead of profiled runs — the
// quadratic phase then needs zero profiling workloads. --json FILE
// additionally runs the profiled and static pipelines on all five systems
// and writes the pair-set precision/recall cross-check per system as
// BenchRecords.
#include <chrono>
#include <set>
#include <string>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/core/multi_crash.h"

namespace {

// n points make n(n-1)/2 unordered pairs.
long long PairCount(int points) { return static_cast<long long>(points) * (points - 1) / 2; }

// part / whole, 1 for an empty whole.
double Ratio(long long part, long long whole) {
  return whole == 0 ? 1.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Uncapped pair-set cross-check for one system: profiled pipeline vs
// static-only pipeline over the same seed. An unordered pair {a, b} is
// statically enumerable iff both points are static points, so each pair set
// holds the pairs of a point set: the profiled points, the static points, or
// the points the two share (the profiled pairs the static set matches).
struct PairCrossRow {
  std::string system;
  int static_points = 0;
  int profiled_points = 0;
  int shared_points = 0;
  int instrumented_runs = 0;  // of the static pipeline; must be 0
};

PairCrossRow CrossCheckSystem(const ctcore::SystemUnderTest& system) {
  ctcore::CrashTunerDriver driver;
  ctcore::SystemReport profiled = driver.Run(system);
  ctcore::DriverOptions options;
  options.context_mode = ctcore::ContextMode::kStaticOnly;
  ctcore::SystemReport enumerated = driver.Run(system, options);
  const std::set<ctrt::DynamicPoint>& static_points = enumerated.profile.dynamic_access_points;
  PairCrossRow row;
  row.system = system.name();
  row.static_points = static_cast<int>(static_points.size());
  row.profiled_points = static_cast<int>(profiled.profile.dynamic_access_points.size());
  for (const ctrt::DynamicPoint& point : profiled.profile.dynamic_access_points) {
    row.shared_points += static_cast<int>(static_points.count(point));
  }
  row.instrumented_runs = enumerated.profile.instrumented_runs;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  bool static_only = false;
  int max_pairs = 60;
  for (const std::string& arg : flags.positional) {
    if (arg == "--static-only") {
      static_only = true;
    } else {
      max_pairs = std::atoi(arg.c_str());
    }
  }
  ctbench::PrintHeader(static_only
                           ? "Extension — multi-crash injection on mini-YARN (static contexts)"
                           : "Extension — multi-crash (pairwise) injection on mini-YARN");

  ctbench::BenchObservation observation(flags);
  ctyarn::YarnSystem yarn;
  ctcore::CrashTunerDriver driver;
  ctcore::DriverOptions options;
  if (static_only) {
    options.context_mode = ctcore::ContextMode::kStaticOnly;
  }
  options.observer = observation.ObserverFor(yarn.name() + "/single");
  ctcore::SystemReport single = driver.Run(yarn, options);
  std::printf("contexts    : %s, %d dynamic points, %d instrumented (profiling) runs\n",
              static_only ? "statically enumerated" : "profiled",
              single.dynamic_crash_points, single.profile.instrumented_runs);

  ctcore::FaultInjectionTester tester(&yarn, &single.crash_points, single.filter,
                                      single.profile.baseline, single.profile.normal_duration_ms);
  auto seq_start = std::chrono::steady_clock::now();
  ctcore::MultiCrashReport report =
      tester.TestPairs(single.profile, single.injections, max_pairs);
  double seq_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - seq_start).count();

  std::printf("single-crash: %zu runs, %zu issues\n", single.injections.size(),
              single.bugs.size());
  std::printf("pairwise    : %d runs (%.2f virt h), %zu failing, %zu with failure signatures\n"
              "              unreachable by any single crash\n",
              report.pairs_tested, report.virtual_hours, report.failing.size(),
              report.multi_only.size());
  for (const auto& pair : report.multi_only) {
    std::printf("  multi-only: %s + %s -> %s\n", pair.first_location.c_str(),
                pair.second_location.c_str(), pair.outcome.PrimarySymptom().c_str());
    for (const auto& exception : pair.outcome.uncommon_exceptions) {
      std::printf("      exc: %s\n", exception.c_str());
    }
  }
  ctbench::PrintRule();
  std::printf("The quadratic pair space is why the paper scopes CrashTuner to single\n"
              "crashes: %d pairs already cost %.1fx the single-crash testing time.\n",
              report.pairs_tested,
              single.test_virtual_hours > 0 ? report.virtual_hours / single.test_virtual_hours
                                            : 0.0);

  // Pair runs are independent, so the quadratic space is also the best place
  // to spend worker threads; --jobs N times the same campaign in parallel.
  const int jobs = ctcore::ResolveJobs(flags.jobs);
  if (jobs > 1) {
    auto par_start = std::chrono::steady_clock::now();
    ctcore::MultiCrashReport parallel =
        tester.TestPairs(single.profile, single.injections, max_pairs, jobs);
    double par_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - par_start).count();
    std::printf("parallel    : jobs=%d, %.3fs wall vs %.3fs sequential (%.2fx), report %s\n",
                jobs, par_wall, seq_wall, par_wall > 0 ? seq_wall / par_wall : 0.0,
                parallel.pairs_tested == report.pairs_tested &&
                        parallel.failing.size() == report.failing.size() &&
                        parallel.multi_only.size() == report.multi_only.size()
                    ? "identical"
                    : "DIVERGED");
  }

  ctbench::BenchRecords records;
  if (!flags.json_path.empty()) {
    ctbench::PrintRule();
    std::printf("pair-set cross-check (uncapped): static-only vs profiled per system\n");
    std::printf("%-16s %8s %8s %8s %8s %10s %6s\n", "system", "prof-pts", "stat-pts",
                "prof-prs", "stat-prs", "recall", "prec");
    for (const auto& system : ctbench::AllSystems()) {
      PairCrossRow row = CrossCheckSystem(*system);
      const long long profiled_pairs = PairCount(row.profiled_points);
      const long long static_pairs = PairCount(row.static_points);
      const long long matched_pairs = PairCount(row.shared_points);
      // Recall is the soundness direction: every profiled pair must be
      // statically enumerated. Precision is the share of static pairs the
      // profiler realized.
      const double recall = Ratio(matched_pairs, profiled_pairs);
      const double precision = Ratio(matched_pairs, static_pairs);
      std::printf("%-16s %8d %8d %8lld %8lld %9.1f%% %5.3f\n", row.system.c_str(),
                  row.profiled_points, row.static_points, profiled_pairs, static_pairs,
                  100.0 * recall, precision);
      const std::string prefix = row.system + ".";
      records.Add(prefix + "profiled_points", "count", row.profiled_points);
      records.Add(prefix + "static_points", "count", row.static_points);
      records.Add(prefix + "profiled_pairs", "count", profiled_pairs);
      records.Add(prefix + "static_pairs", "count", static_pairs);
      records.Add(prefix + "matched_pairs", "count", matched_pairs);
      records.Add(prefix + "recall", "frac", recall);
      records.Add(prefix + "precision", "frac", precision);
      records.Add(prefix + "static_instrumented_runs", "count", row.instrumented_runs);
    }
  }

  int status = records.Finish(flags.json_path);
  status += observation.Write() ? 0 : 1;
  return status;
}
