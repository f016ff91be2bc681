// Observability-at-scale bench (CI stage 4h): causal flow tracing and
// failure dossiers on a scaled-out ZooKeeper campaign.
//
// Runs the full CrashTuner driver over mini-ZooKeeper at --scale (default 8)
// twice — observation off, then observation on (jobs=4 both times) — and
// checks:
//
//   1. Passivity: the two SystemReports serialize byte-identically and carry
//      the same campaign trace hash. Flow stamping and phase stamps must not
//      perturb a single event.
//   2. Flows: deliveries were recorded and causal chains actually nest
//      (max depth >= 2).
//   3. Dossiers: a mini-YARN campaign (ZooKeeper's recovers cleanly — Table 5
//      lists no new ZooKeeper bugs) must hand its observer one dossier per
//      bug-verdict injection, each round-tripping through the
//      crashtuner-dossier-v1 reader unchanged.
//   4. Overhead: the observed campaign's wall time stays within 10% of the
//      unobserved one. Like the other wall-clock bars this is enforced only
//      on >= 4 hardware threads.
//
//   bench_obs_flows [--jobs N] [--json FILE] [--metrics-out FILE]
//                   [--trace-out FILE] [--dossier-dir DIR] [SCALE]
//
// --json FILE writes the results as BenchRecords. Exit status is the number
// of violated criteria, plus one per failed write.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/core/report_writer.h"
#include "src/obs/dossier.h"

namespace {

double Wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  int scale = 8;
  for (const std::string& arg : flags.positional) {
    const int level = std::atoi(arg.c_str());
    if (level >= 1) {
      scale = level;
    }
  }
  const int jobs = flags.jobs > 1 ? flags.jobs : 4;

  ctbench::PrintHeader("Observability at scale: flows, dossiers");
  std::printf("zookeeper @ scale %d, jobs=%d\n", scale, jobs);

  // Pass 1: observation off. This is the baseline both for passivity (the
  // report must not change) and for the tracing-overhead bar.
  ctzk::ZkSystem baseline_system;
  baseline_system.set_scale(scale);
  (void)baseline_system.model();
  ctcore::DriverOptions off_options;
  off_options.jobs = jobs;
  const auto off_start = std::chrono::steady_clock::now();
  const ctcore::SystemReport report_off =
      ctcore::CrashTunerDriver().Run(baseline_system, off_options);
  const double off_wall = Wall(off_start);

  // Pass 2: observation on — phase stamps and flows recording, and the
  // report's dossiers handed to the observer.
  ctzk::ZkSystem observed_system;
  observed_system.set_scale(scale);
  ctbench::BenchObservation observation(flags);
  ctobs::CampaignObserver local_observer;
  ctcore::DriverOptions on_options;
  on_options.jobs = jobs;
  ctobs::CampaignObserver* observer = observation.enabled()
                                          ? observation.ObserverFor("zookeeper-obs")
                                          : &local_observer;
  on_options.observer = observer;
  const auto on_start = std::chrono::steady_clock::now();
  const ctcore::SystemReport report_on =
      ctcore::CrashTunerDriver().Run(observed_system, on_options);
  const double on_wall = Wall(on_start);

  ctbench::BenchRecords records;
  records.Add("scale", "x", scale);
  records.Add("jobs", "count", jobs);

  // 1. Passivity. Wall-clock timings are the one legitimately nondeterministic
  // part of a report; zero them before the byte comparison like the
  // determinism tests do.
  ctcore::SystemReport off_copy = report_off;
  ctcore::SystemReport on_copy = report_on;
  off_copy.analysis_wall_seconds = on_copy.analysis_wall_seconds = 0;
  off_copy.test_wall_seconds = on_copy.test_wall_seconds = 0;
  const bool reports_identical =
      ctcore::ReportToJson(off_copy) == ctcore::ReportToJson(on_copy) &&
      report_off.trace_hash == report_on.trace_hash;
  std::printf("passivity: reports %s (trace hash %016llx vs %016llx)\n",
              reports_identical ? "byte-identical" : "DIVERGED",
              static_cast<unsigned long long>(report_off.trace_hash),
              static_cast<unsigned long long>(report_on.trace_hash));
  records.AddBar("reports_identical", "bool", reports_identical, "== 1", reports_identical);

  // Finalize() the observer copy we keep for assertions. BenchObservation
  // owns the observer when file output was requested; Finalize is const-safe
  // to call once more here either way.
  const ctobs::SystemMetrics metrics = observer->Finalize();

  // 2. Flows.
  const ctobs::FlowStats& flows = metrics.flows;
  const bool flows_ok = flows.messages > 0 && flows.max_depth >= 2;
  std::printf("flows: %llu deliveries, %llu roots, max depth %llu — %s\n",
              static_cast<unsigned long long>(flows.messages),
              static_cast<unsigned long long>(flows.roots),
              static_cast<unsigned long long>(flows.max_depth), flows_ok ? "ok" : "FAIL");
  records.Add("flows.messages", "count", flows.messages);
  records.Add("flows.roots", "count", flows.roots);
  records.Add("flows.max_depth", "count", flows.max_depth);
  records.AddBar("flows.ok", "bool", flows_ok, "== 1", flows_ok);

  // 3. Dossiers. ZooKeeper's campaign recovers cleanly (Table 5 finds no new
  // ZooKeeper bugs, so no injection earns a bug verdict), so the dossier
  // contract is proved on a mini-YARN campaign in the same process: every
  // bug-verdict injection must have produced one crashtuner-dossier-v1 and
  // each must survive the reader round trip.
  ctyarn::YarnSystem dossier_system;
  ctobs::CampaignObserver local_dossier_observer;
  ctobs::CampaignObserver* dossier_observer = observation.enabled()
                                                  ? observation.ObserverFor("yarn-dossiers")
                                                  : &local_dossier_observer;
  ctcore::DriverOptions dossier_options;
  dossier_options.jobs = jobs;
  dossier_options.observer = dossier_observer;
  const ctcore::SystemReport dossier_report =
      ctcore::CrashTunerDriver().Run(dossier_system, dossier_options);
  int bug_runs = 0;
  for (const ctcore::InjectionResult& injection : dossier_report.injections) {
    bug_runs += injection.outcome.IsBug() ? 1 : 0;
  }
  const std::vector<ctobs::Dossier> dossiers = dossier_observer->dossiers();
  int roundtrip_failures = 0;
  for (const ctobs::Dossier& dossier : dossiers) {
    try {
      const std::string json = dossier.ToJson();
      if (ctobs::Dossier::FromJsonText(json).ToJson() != json) {
        ++roundtrip_failures;
      }
    } catch (const std::exception& error) {
      std::printf("  dossier slot %d failed to parse back: %s\n", dossier.slot, error.what());
      ++roundtrip_failures;
    }
  }
  const bool dossiers_ok = static_cast<int>(dossiers.size()) == bug_runs &&
                           bug_runs > 0 && roundtrip_failures == 0;
  std::printf(
      "dossiers (yarn @ scale 1): %zu emitted for %d bug runs, %d round-trip failure(s) — %s\n",
      dossiers.size(), bug_runs, roundtrip_failures, dossiers_ok ? "ok" : "FAIL");
  records.Add("dossiers.bug_runs", "count", bug_runs);
  records.Add("dossiers.emitted", "count", dossiers.size());
  records.Add("dossiers.roundtrip_failures", "count", roundtrip_failures);
  records.AddBar("dossiers.ok", "bool", dossiers_ok, "== 1", dossiers_ok);

  // 4. Overhead.
  const double overhead = off_wall > 0 ? (on_wall - off_wall) / off_wall : 0.0;
  const int hardware_threads = ctcore::ResolveJobs(0);
  const bool enforce_overhead = ctbench::EnforceSpeedupBar(hardware_threads);
  std::printf("overhead: %.3fs observed vs %.3fs baseline (%+.1f%%, bar <= 10%%, %s on %d "
              "hardware thread(s))\n",
              on_wall, off_wall, 100.0 * overhead,
              enforce_overhead ? "enforced" : "not enforced", hardware_threads);
  records.Add("overhead.baseline_wall_s", "s", off_wall);
  records.Add("overhead.observed_wall_s", "s", on_wall);
  records.AddBar("overhead.frac", "frac", overhead, "<= 0.1", overhead <= 0.10,
                 enforce_overhead);
  records.Add("hardware_threads", "count", hardware_threads);

  int status = observation.Write() ? 0 : 1;
  status += records.Finish(flags.json_path);
  return status;
}
