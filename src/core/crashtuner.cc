#include "src/core/crashtuner.h"

#include <chrono>
#include <map>

#include "src/common/fnv.h"
#include "src/common/strings.h"
#include "src/core/campaign.h"
#include "src/core/report_writer.h"
#include "src/obs/observer.h"
#include "src/runtime/tracer.h"

namespace ctcore {

std::vector<DetectedBug> TriageBugs(const SystemUnderTest& system,
                                    const std::vector<InjectionResult>& injections) {
  const std::vector<KnownBug> known = system.known_bugs();

  // Deduplicate at issue granularity: same static location + same primary
  // symptom + same first uncommon exception.
  std::map<std::string, DetectedBug> by_signature;
  for (const auto& injection : injections) {
    if (!injection.injected || !injection.outcome.IsBug()) {
      continue;
    }
    // Triage before dedup: the signature of an injection that reproduces a
    // known issue is the issue id, so several dynamic points exposing the
    // same root cause collapse into one row (the "(2)" entries of Table 5).
    // First pass matches crash-point location + failure; the fallback pass
    // matches the failure alone (a crash at one point can surface a bug whose
    // window lives elsewhere).
    const ctcore::KnownBug* matched = nullptr;
    auto exceptions_match = [&](const ctcore::KnownBug& candidate) {
      if (candidate.exception_substr.empty() ||
          candidate.exception_substr == injection.outcome.PrimarySymptom()) {
        return true;
      }
      for (const auto& exception : injection.outcome.uncommon_exceptions) {
        if (ctcommon::Contains(exception, candidate.exception_substr)) {
          return true;
        }
      }
      return false;
    };
    for (const auto& candidate : known) {
      if (candidate.location_substr.empty() ||
          !ctcommon::Contains(injection.location, candidate.location_substr)) {
        continue;
      }
      if (exceptions_match(candidate)) {
        matched = &candidate;
        break;
      }
    }
    if (matched == nullptr && !injection.outcome.uncommon_exceptions.empty()) {
      for (const auto& candidate : known) {
        if (!candidate.exception_substr.empty() && exceptions_match(candidate)) {
          matched = &candidate;
          break;
        }
      }
    }
    if (matched == nullptr && injection.location.empty()) {
      continue;  // no crash point to name a new bug after (baseline trials)
    }
    std::string signature =
        matched != nullptr
            ? matched->bug_id
            : injection.location + "|" + injection.outcome.PrimarySymptom();
    auto [it, inserted] = by_signature.try_emplace(signature);
    DetectedBug& bug = it->second;
    if (inserted) {
      bug.location = injection.location;
      bug.scenario =
          injection.mode == InjectionMode::kNetworkFault
              ? "network-fault"
              : (injection.kind == ctanalysis::CrashPointKind::kPreRead ? "pre-read"
                                                                        : "post-write");
      bug.symptom = injection.outcome.PrimarySymptom();
      bug.sample_outcome = injection.outcome;
      if (matched != nullptr) {
        bug.bug_id = matched->bug_id;
        bug.priority = matched->priority;
        bug.status = matched->status;
        bug.symptom = matched->symptom;
        bug.metainfo = matched->metainfo;
        bug.scenario = matched->scenario;
      } else {
        bug.bug_id = "NEW-" + injection.location;
        bug.priority = "Unknown";
        bug.status = "Unreported";
      }
    }
    bug.exposing_points.push_back(injection.point);
  }

  std::vector<DetectedBug> bugs;
  bugs.reserve(by_signature.size());
  for (auto& [signature, bug] : by_signature) {
    bugs.push_back(std::move(bug));
  }
  return bugs;
}

SystemReport CrashTunerDriver::Run(const SystemUnderTest& system,
                                   const DriverOptions& options) const {
  SystemReport report;
  report.system = system.name();
  const ctmodel::ProgramModel& model = system.model();

  // The driver's wall-clock reads bound its phases: analysis, profile and
  // campaign, in Table 11 and on the observer's Chrome-trace driver thread.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start = Clock::now();

  const bool static_mode = options.context_mode == ContextMode::kStaticOnly;

  // --- Phase 1a: collect logs; the log run is profiling iteration 0. -------
  // Both run the default workload size fault-free, and no run draws a random
  // number. The crash points come from analysing this run's logs, so it
  // profiles every executable access point, a superset of the crash points
  // that can fire, and the profiler keeps the crash points' records.
  // Static-only mode instruments no run at all: its log run stays tracer-off
  // and is also its profile (the oracle baseline and the fault-free
  // duration).
  const std::set<int> no_points;
  auto log_run = Profiler::NewRun(system, system.default_workload_size(), options.seed,
                                  static_mode ? no_points : model.executable_access_points(),
                                  no_points);
  const RunOutcome log_outcome = Executor::Execute(*log_run, /*baseline=*/nullptr);
  ProfileSample first_profile = Profiler::Sample(*log_run, log_outcome);
  std::vector<ctlog::Instance> run_logs = log_run->cluster().logs().instances();
  std::vector<std::string> hosts = log_run->cluster().config_hosts();
  log_run.reset();

  // --- Phase 1b: offline analyses. ------------------------------------------
  ctanalysis::LogAnalysis log_analysis(&model, hosts);
  report.log_result = log_analysis.Analyze(run_logs);

  ctanalysis::MetaInfoInference inference(&model);
  std::set<std::string> seed_types = report.log_result.seed_types;
  seed_types.insert(options.annotated_seed_types.begin(), options.annotated_seed_types.end());
  report.metainfo = inference.Infer(seed_types, report.log_result.seed_fields);

  ctanalysis::CrashPointOptions crash_point_options = options.crash_point_options;
  if (static_mode) {
    crash_point_options.prune_statically_unreachable = true;
  }
  ctanalysis::CrashPointAnalysis crash_analysis(&model, &report.metainfo);
  report.crash_points = crash_analysis.Identify(crash_point_options);

  const Clock::time_point analysis_end = Clock::now();
  report.analysis_wall_seconds = std::chrono::duration<double>(analysis_end - wall_start).count();

  // --- Phase 1c: dynamic crash points (profiled or enumerated). -------------
  if (!static_mode) {
    report.profile = Profiler().Profile(system, report.crash_points.PointIds(),
                                        /*io_points=*/{}, options.seed, std::move(first_profile));
  } else {
    report.profile.baseline = std::move(first_profile.baseline);
    report.profile.normal_duration_ms = first_profile.duration_ms;
    report.profile.iterations = 1;
    ctanalysis::CallGraph graph(model);
    ctanalysis::ContextEnumeration enumeration(&graph);
    // Enumerate at the bound the run's tracers record, so static call strings
    // match the stack keys the profiled and injection runs produce.
    ctanalysis::StaticContextResult contexts = enumeration.EnumerateAll(
        ctrt::AccessTracer::DefaultStackDepth(), /*prune_infeasible=*/true);
    std::set<ctrt::DynamicPoint> static_points;
    for (int id : report.crash_points.PointIds()) {
      const ctmodel::AccessPointDecl& point = model.access_point(id);
      if (!point.executable) {
        continue;  // catalog-only candidates carry no runtime hook to arm
      }
      auto it = contexts.contexts_by_point.find(id);
      if (it == contexts.contexts_by_point.end()) {
        if (contexts.unreachable_points.count(id) > 0) {
          ++report.static_unreachable_points;
        } else if (contexts.infeasible_points.count(id) > 0) {
          ++report.static_infeasible_points;
        }
        continue;
      }
      for (const std::string& key : it->second) {
        static_points.insert({id, key});
      }
    }
    report.static_contexts = static_cast<int>(static_points.size());
    report.static_pruned_call_strings = contexts.pruned_call_strings;
    report.profile.dynamic_access_points = std::move(static_points);
  }
  report.profile_virtual_seconds =
      static_cast<double>(report.profile.normal_duration_ms) * report.profile.iterations / 1000.0;

  // --- Phase 2: fault-injection testing. -------------------------------------
  report.filter = log_analysis.MakeOnlineFilter(report.log_result);
  FaultInjectionTester tester(&system, &report.crash_points, report.filter,
                              report.profile.baseline, report.profile.normal_duration_ms,
                              options.pre_read_wait_ms);
  tester.set_injection_mode(options.injection_mode);
  tester.set_observer(options.observer);
  const uint64_t campaign_seed = options.seed + kCampaignSeedOffset;
  const Clock::time_point test_wall_start = Clock::now();
  report.injections = tester.TestAll(report.profile, campaign_seed, options.jobs);
  const Clock::time_point test_wall_end = Clock::now();
  report.test_wall_seconds = std::chrono::duration<double>(test_wall_end - test_wall_start).count();
  report.test_virtual_hours = static_cast<double>(tester.total_virtual_ms()) / 3'600'000.0;

  // --- Reporting. ------------------------------------------------------------
  report.total_types = model.NumTypes();
  report.total_fields = model.NumFields();
  report.total_access_points = model.NumAccessPoints();
  report.metainfo_types = report.metainfo.NumTypes();
  report.metainfo_fields = report.metainfo.NumFields();
  report.metainfo_access_points = report.crash_points.metainfo_access_points;
  report.static_crash_points = static_cast<int>(report.crash_points.points.size());
  report.dynamic_crash_points = static_cast<int>(report.profile.dynamic_access_points.size());
  report.pruned_constructor = report.crash_points.pruned_constructor;
  report.pruned_unused = report.crash_points.pruned_unused;
  report.pruned_sanity_checked = report.crash_points.pruned_sanity_checked;

  // Campaign fingerprint: FNV-1a mix of the per-run trace hashes in
  // injection (index) order, so it is jobs-count independent like everything
  // else in the report.
  ctcommon::Fnv1a combined;
  for (const auto& injection : report.injections) {
    combined.AddU64(injection.trace_hash);
  }
  report.trace_hash = report.injections.empty() ? 0 : combined.value();

  report.bugs = TriageBugs(system, report.injections);
  for (const auto& injection : report.injections) {
    if (injection.injected && !injection.outcome.IsBug() && injection.outcome.timeout_issue) {
      report.timeout_issues.push_back(injection);
    }
  }

  if (options.observer != nullptr) {
    options.observer->AddDriverPhase("analysis", wall_start, analysis_end);
    options.observer->AddDriverPhase("profile", analysis_end, test_wall_start);
    options.observer->AddDriverPhase("campaign", test_wall_start, test_wall_end);
    options.observer->set_system(report.system);
    options.observer->set_jobs(ResolveJobs(options.jobs));
    options.observer->set_dossiers(ReportDossiers(system, report, campaign_seed));
  }
  return report;
}

}  // namespace ctcore
