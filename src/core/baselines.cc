#include "src/core/baselines.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/campaign.h"
#include "src/sim/exception.h"

namespace ctcore {

namespace {

// Non-workload-driver nodes, in cluster order: the victims random trials
// pick from.
std::vector<std::string> EligibleVictims(const ctsim::Cluster& cluster) {
  std::vector<std::string> ids;
  for (ctsim::Node* node : cluster.nodes()) {
    if (!node->workload_driver()) {
      ids.push_back(node->id());
    }
  }
  return ids;
}

// Fault-free calibration run: oracle baseline, normal runtime, and how many
// victims random trials pick from.
struct Calibration {
  OracleBaseline baseline;
  ctsim::Time normal_duration_ms = 0;
  size_t victims = 0;
};

Calibration Calibrate(const SystemUnderTest& system, uint64_t seed) {
  Calibration calibration;
  auto run = system.NewRun(system.default_workload_size(), seed);
  calibration.victims = EligibleVictims(run->cluster()).size();
  RunOutcome outcome = Executor::Execute(*run, /*baseline=*/nullptr);
  calibration.normal_duration_ms = outcome.virtual_duration_ms;
  Executor::AccumulateBaseline(run->cluster().logs(), &calibration.baseline);
  return calibration;
}

// One random trial's randomness, pre-drawn in trial order from a single
// stream so the trials can run on any worker thread without perturbing (or
// racing on) the generator: when the fault lands, which eligible victim it
// hits, and for a partition how long the cut lasts.
struct Plan {
  ctsim::Time at_ms = 0;
  uint64_t target_index = 0;
  ctsim::Time partition_ms = 0;
};

// Runs the planned trials across `jobs` worker threads; `arm` installs a
// trial's fault on its fresh cluster. Each run resolves its victim index
// against its own eligible nodes.
template <typename Arm>
std::vector<BaselineTrial> RunTrials(const SystemUnderTest& system,
                                    const Calibration& calibration,
                                    const std::vector<Plan>& plans, uint64_t seed, int jobs,
                                    const Arm& arm) {
  CampaignEngine engine(jobs);
  return engine.Map(static_cast<int>(plans.size()), [&](int t) {
    const Plan& plan = plans[static_cast<size_t>(t)];
    auto run = system.NewRun(system.default_workload_size(), seed + 7919ull * (t + 1));
    ctsim::Cluster& cluster = run->cluster();
    const std::vector<std::string> victims = EligibleVictims(cluster);
    CT_CHECK(victims.size() == calibration.victims);

    BaselineTrial trial;
    trial.trial_index = t;
    trial.injected = true;
    trial.target_node = victims[plan.target_index];
    trial.crash_time_ms = plan.at_ms;
    trial.partition_ms = plan.partition_ms;
    arm(cluster, trial);
    trial.outcome = Executor::Execute(*run, &calibration.baseline);
    return trial;
  });
}

// Folds the trials, in trial order, into the report: virtual time on top of
// the calibration run's, the failing trials, and their triage.
void Tally(const SystemUnderTest& system, std::vector<BaselineTrial> results,
           ctsim::Time calibration_ms, BaselineReport* report) {
  uint64_t total_virtual_ms = calibration_ms;
  for (BaselineTrial& trial : results) {
    total_virtual_ms += trial.outcome.virtual_duration_ms;
    if (trial.outcome.IsBug()) {
      report->failing_trials.push_back(std::move(trial));
    }
  }
  report->virtual_hours = static_cast<double>(total_virtual_ms) / 3'600'000.0;
  report->bugs = TriageBaselineBugs(system, report->failing_trials);
}

}  // namespace

std::vector<DetectedBug> TriageBaselineBugs(const SystemUnderTest& system,
                                            const std::vector<BaselineTrial>& trials) {
  // A trial has no crash-point location, so TriageBugs reports it only when
  // its failure matches a known issue. Trials that match none (typically
  // master-kill unavailability, which needs no crash-*recovery* bug to fail
  // the job) stay in failing_trials but are not counted as detected bugs.
  // Each hit adds an exposing point (the paper's "1 bug (for 6 times)" style
  // of reporting), and a failing trial is triaged whether or not its fault
  // landed.
  std::vector<InjectionResult> runs(trials.size());
  for (size_t i = 0; i < trials.size(); ++i) {
    runs[i].injected = true;
    runs[i].point = trials[i].io_point;
    runs[i].outcome = trials[i].outcome;
  }
  return TriageBugs(system, runs);
}

BaselineReport RandomCrashInjector::Run(const SystemUnderTest& system, int trials, uint64_t seed,
                                        int jobs) const {
  BaselineReport report;
  report.system = system.name();
  report.approach = "random";
  report.trials = trials;

  Calibration calibration = Calibrate(system, seed);
  ctcommon::Rng rng(seed ^ 0x5eed);
  std::vector<Plan> plans(static_cast<size_t>(std::max(trials, 0)));
  for (Plan& plan : plans) {
    plan.at_ms = rng.Uniform(0, calibration.normal_duration_ms);
    plan.target_index = rng.Index(calibration.victims);
  }
  auto crash = [](ctsim::Cluster& cluster, const BaselineTrial& trial) {
    cluster.loop().ScheduleAt(trial.crash_time_ms,
                              [&cluster, node = trial.target_node] { cluster.Crash(node); });
  };
  Tally(system, RunTrials(system, calibration, plans, seed, jobs, crash),
        calibration.normal_duration_ms, &report);
  return report;
}

BaselineReport NetworkRandomInjector::Run(const SystemUnderTest& system, int trials,
                                          uint64_t seed, int jobs) const {
  BaselineReport report;
  report.system = system.name();
  report.approach = "network-random";
  report.trials = trials;

  // The window is drawn blind, uniform over the fault-free runtime: without
  // meta-info the baseline knows nothing about failure-detector scales, so
  // most draws are too short to outlast an expiry or so long that recovery
  // settles before the heal — that miss rate is what the baseline measures.
  Calibration calibration = Calibrate(system, seed);
  ctcommon::Rng rng(seed ^ 0x6e657264);
  std::vector<Plan> plans(static_cast<size_t>(std::max(trials, 0)));
  for (Plan& plan : plans) {
    plan.at_ms = rng.Uniform(0, calibration.normal_duration_ms);
    plan.target_index = rng.Index(calibration.victims);
    plan.partition_ms = rng.Uniform(50, calibration.normal_duration_ms);
  }
  auto partition = [](ctsim::Cluster& cluster, const BaselineTrial& trial) {
    cluster.Partition({trial.target_node}, trial.crash_time_ms,
                      trial.crash_time_ms + trial.partition_ms);
  };
  Tally(system, RunTrials(system, calibration, plans, seed, jobs, partition),
        calibration.normal_duration_ms, &report);
  return report;
}

BaselineReport IoFaultInjector::Run(const SystemUnderTest& system, uint64_t seed,
                                    int jobs) const {
  BaselineReport report;
  report.system = system.name();
  report.approach = "io";

  const ctmodel::ProgramModel& model = system.model();
  report.io_classes = model.NumIoClasses();
  report.io_methods = model.NumIoMethods();
  report.static_io_points = model.NumIoPoints();

  // Profile dynamic IO points.
  std::set<int> io_ids;
  for (const auto& point : model.io_points()) {
    io_ids.insert(point.id);
  }
  Profiler profiler;
  ProfileResult profile = profiler.Profile(system, /*access_points=*/{}, io_ids, seed);
  report.dynamic_io_points = static_cast<int>(profile.dynamic_io_points.size());

  // The trial list — every dynamic IO point, before and after — is
  // deterministic, so enumerate it up front and fan the runs out.
  struct IoTask {
    ctrt::DynamicPoint point;
    bool before = true;
  };
  std::vector<IoTask> tasks;
  for (const auto& point : profile.dynamic_io_points) {
    for (bool before : {true, false}) {
      tasks.push_back({point, before});
    }
  }
  report.trials = static_cast<int>(tasks.size());

  CampaignEngine engine(jobs);
  std::vector<BaselineTrial> results =
      engine.Map(static_cast<int>(tasks.size()), [&](int i) {
        const IoTask& task = tasks[static_cast<size_t>(i)];
        auto run = system.NewRun(system.default_workload_size(),
                                 seed + 104729ull * static_cast<uint64_t>(i + 1));
        ctsim::Cluster& cluster = run->cluster();

        BaselineTrial trial;
        trial.trial_index = i;
        trial.io_point = task.point;
        trial.io_before = task.before;
        ctrt::AccessTracer& tracer = run->context().tracer();
        tracer.Reset(ctrt::TraceMode::kTrigger);
        const ctrt::Hook hook = task.before ? ctrt::Hook::kIoBegin : ctrt::Hook::kIoEnd;
        tracer.Arm(hook, task.point, [&](const std::string&) {
          // The OpenStack-style baseline kills the node performing the IO.
          std::string target = cluster.current_node();
          if (target.empty() || !cluster.IsAlive(target)) {
            return;
          }
          trial.injected = true;
          trial.target_node = target;
          cluster.Crash(target);
          throw ctsim::NodeCrashedSignal{};
        });

        trial.outcome = Executor::Execute(*run, &profile.baseline);
        return trial;
      });

  Tally(system, std::move(results), /*calibration_ms=*/0, &report);
  return report;
}

}  // namespace ctcore
