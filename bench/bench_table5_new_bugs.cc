// Table 4 (systems under test) and Table 5 (new bugs detected): the headline
// experiment — a full CrashTuner run over all five systems, printing the
// detected bugs with priority, scenario, status, symptom and meta-info, plus
// the §4.1.3 timeout issues.
//
// With `--speedup [--jobs N]` the bench also times the Phase-2 injection
// campaign sequentially and at N worker threads. A single campaign is only
// ~40 simulated runs, so the timing repeats the campaign for enough rounds to
// get wall-clock numbers above scheduler noise. `--json FILE` writes the
// issue counts, and the timings when measured, as BenchRecords.
#include <chrono>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/core/trigger.h"

namespace {

double TimeCampaignRounds(ctcore::FaultInjectionTester& tester,
                          const ctcore::ProfileResult& profile, int rounds, int jobs) {
  auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    tester.TestAll(profile, 1000 + static_cast<uint64_t>(round), jobs);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);

  ctbench::PrintHeader("Table 4 — systems under test");
  std::printf("%-14s %-22s %s\n", "System", "Version", "Workload");
  for (const auto& system : ctbench::AllSystems()) {
    std::printf("%-14s %-22s %s\n", system->name().c_str(), system->version().c_str(),
                system->workload_name().c_str());
  }

  ctbench::PrintHeader("Table 5 — new bugs detected (paper: 21 bugs, 8 critical, all confirmed)");
  std::printf("%-13s %-9s %-11s %-12s %-55s %s\n", "Bug ID", "Priority", "Scenario", "Status",
              "Symptom", "Meta-info");
  ctbench::PrintRule();

  auto systems = ctbench::AllSystems();
  ctbench::BenchObservation observation(flags);
  std::vector<ctcore::SystemReport> reports;
  int total_bug_rows = 0;
  int critical = 0;
  int grouped_points = 0;
  int timeout_issues = 0;
  double total_test_hours = 0;
  for (const auto& system : systems) {
    ctcore::CrashTunerDriver driver;
    ctcore::DriverOptions options;
    options.jobs = flags.jobs;
    options.observer = observation.ObserverFor(system->name());
    reports.push_back(driver.Run(*system, options));
    const ctcore::SystemReport& report = reports.back();
    total_test_hours += report.test_virtual_hours;
    timeout_issues += static_cast<int>(report.timeout_issues.size());
    for (const auto& bug : report.bugs) {
      ++total_bug_rows;
      grouped_points += static_cast<int>(bug.exposing_points.size());
      if (bug.priority == "Critical") {
        ++critical;
      }
      std::string id = bug.bug_id;
      if (bug.exposing_points.size() > 1) {
        id += "(" + std::to_string(bug.exposing_points.size()) + ")";
      }
      std::printf("%-13s %-9s %-11s %-12s %-55s %s\n", id.c_str(), bug.priority.c_str(),
                  bug.scenario.c_str(), bug.status.c_str(), bug.symptom.c_str(),
                  bug.metainfo.c_str());
    }
  }
  ctbench::PrintRule();
  std::printf("measured: %d issues (%d exposing dynamic points), %d critical\n", total_bug_rows,
              grouped_points, critical);
  std::printf("paper   : 18 issue rows / 21 bugs counting the (2) groupings, 8 critical\n");
  std::printf("timeout issues (§4.1.3): measured %d, paper 4 (3 Yarn + 1 HBase)\n",
              timeout_issues);
  std::printf("total testing time: %.2f virtual hours (paper: 17.39 h max per system on a real "
              "3-node cluster)\n",
              total_test_hours);

  if (!observation.Write()) {
    return 1;
  }

  ctbench::BenchRecords records;
  records.Add("issues", "count", total_bug_rows);
  records.Add("exposing_points", "count", grouped_points);
  records.Add("critical", "count", critical);
  records.Add("timeout_issues", "count", timeout_issues);
  records.Add("test_virtual_h", "h", total_test_hours);
  if (!flags.speedup) {
    return records.Finish(flags.json_path);
  }

  // Without an explicit --jobs the comparison runs against the hardware.
  const int jobs = flags.jobs > 1 ? flags.jobs : ctcore::ResolveJobs(0);
  const int rounds = 10;
  ctbench::PrintHeader("Parallel campaign — injection runs fanned across worker threads");
  std::printf("jobs=%d, %d campaign rounds per system, %d hardware thread(s)\n", jobs, rounds,
              ctcore::ResolveJobs(0));
  std::printf("%-14s %10s %12s %12s %9s\n", "System", "runs/round", "seq wall(s)", "par wall(s)",
              "speedup");
  ctbench::PrintRule();

  records.Add("jobs", "count", jobs);
  records.Add("rounds", "count", rounds);
  records.Add("hardware_threads", "count", ctcore::ResolveJobs(0));
  double total_seq = 0;
  double total_par = 0;
  for (size_t i = 0; i < systems.size(); ++i) {
    const ctcore::SystemUnderTest& system = *systems[i];
    const ctcore::SystemReport& report = reports[i];

    // Rebuild the Phase-2 tester from the report.
    ctcore::FaultInjectionTester tester(&system, &report.crash_points, report.filter,
                                        report.profile.baseline,
                                        report.profile.normal_duration_ms);

    const int runs_per_round = static_cast<int>(report.injections.size());
    const double sequential_s = TimeCampaignRounds(tester, report.profile, rounds, /*jobs=*/1);
    const double parallel_s = TimeCampaignRounds(tester, report.profile, rounds, jobs);
    const double speedup = parallel_s > 0 ? sequential_s / parallel_s : 0.0;
    std::printf("%-14s %10d %12.3f %12.3f %8.2fx\n", system.name().c_str(), runs_per_round,
                sequential_s, parallel_s, speedup);
    const std::string prefix = system.name() + ".";
    records.Add(prefix + "runs_per_round", "count", runs_per_round);
    records.Add(prefix + "sequential_s", "s", sequential_s);
    records.Add(prefix + "parallel_s", "s", parallel_s);
    records.Add(prefix + "speedup", "x", speedup);
    total_seq += sequential_s;
    total_par += parallel_s;
  }
  ctbench::PrintRule();
  const double total_speedup = total_par > 0 ? total_seq / total_par : 0.0;
  std::printf("%-14s %10s %12.3f %12.3f %8.2fx\n", "total", "", total_seq, total_par,
              total_speedup);
  std::printf("(runs are independent discrete-event simulations; the residual gap to %dx is\n"
              " per-round worker spawn plus the tail of the longest run in each wave)\n",
              jobs);

  records.Add("total.sequential_s", "s", total_seq);
  records.Add("total.parallel_s", "s", total_par);
  records.Add("total.speedup", "x", total_speedup);
  return records.Finish(flags.json_path);
}
