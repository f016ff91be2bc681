#include "src/core/trigger.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "src/core/campaign.h"
#include "src/core/stash_feed.h"
#include "src/obs/observer.h"
#include "src/sim/exception.h"
#include "src/sim/trace.h"

namespace ctcore {

namespace {

// "cluster down" -> "cluster_down": metric names stay shell-friendly.
std::string MetricName(std::string text) {
  std::replace(text.begin(), text.end(), ' ', '_');
  return text;
}

}  // namespace

std::string InjectionName(const SystemUnderTest& system, int point_id) {
  return "inject:" + ctmodel::ProgramModel::ContextMethodOf(system.model().access_point(point_id));
}

const ctanalysis::StaticCrashPoint* FaultInjectionTester::StaticPointOf(int point_id) const {
  for (const auto& static_point : crash_points_->points) {
    if (static_point.access_point_id == point_id) {
      return &static_point;
    }
  }
  return nullptr;
}

void FaultInjectionTester::Strike(ctsim::Cluster& cluster, const std::string& target,
                                  int point_id, ctanalysis::CrashPointKind kind) const {
  if (mode_ == InjectionMode::kNetworkFault) {
    // Fault-on-appearance: cut the target off for the window instead of
    // killing it. The failure detector expires it, recovery starts, then
    // the heal lets the presumed-dead node's messages race the recovered
    // state — the handler (and the target) keep running throughout.
    ctsim::Time partition_ms = kDefaultPartitionMs;
    for (const auto& window : system_->model().network_fault_windows()) {
      if (window.point == point_id) {
        partition_ms = static_cast<ctsim::Time>(window.partition_ms);
        break;
      }
    }
    const ctsim::Time now = cluster.loop().Now();
    cluster.Partition({target}, now, now + partition_ms);
    return;
  }
  const bool killing_current = target == cluster.current_node();
  if (kind == ctanalysis::CrashPointKind::kPreRead) {
    // Graceful shutdown lets the cluster learn about the departure without
    // waiting out the failure detector; the wait window then lets recovery
    // run before the instrumented read proceeds.
    cluster.Shutdown(target);
  } else {
    cluster.Crash(target);
  }
  if (killing_current) {
    throw ctsim::NodeCrashedSignal{};
  }
  if (kind == ctanalysis::CrashPointKind::kPreRead) {
    cluster.loop().RunFor(pre_read_wait_ms_);
  }
}

InjectionResult FaultInjectionTester::TestPoint(const ctrt::DynamicPoint& point,
                                                ctanalysis::CrashPointKind kind, uint64_t seed,
                                                int trace_slot) {
  InjectionResult result;
  result.point = point;
  result.kind = kind;
  result.mode = mode_;
  if (const ctanalysis::StaticCrashPoint* static_point = StaticPointOf(point.point_id)) {
    result.location = static_point->location;
    result.field_id = static_point->field_id;
  }

  // Recorder before the run: the cluster holds a raw pointer to it, so it
  // must outlive the run. Every run is traced; the hash lands in the result.
  ctsim::TraceRecorder recorder;
  // Campaign observability: an observed run gets a RunObserver, which records
  // the phases the executor and this call stamp and the end-of-run counters.
  // Purely passive — no RNG draws, no scheduled events — so the run's trace
  // and hash are unchanged. It too outlives the run (the cluster holds its
  // flow recorder while the run executes).
  std::optional<ctobs::RunObserver> observation;
  ctobs::RunObserver* run_observer =
      observer_ != nullptr && trace_slot >= 0 ? &observation.emplace() : nullptr;

  auto run = system_->NewRun(system_->default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();
  cluster.set_trace_recorder(&recorder);

  StashFeed feed(cluster, filter_);

  // Control-center callback (Fig. 7): resolve the accessed value to a node
  // and inject the fault. Armed on the run's own tracer, so concurrent
  // TestPoint calls cannot clobber each other and the armed trigger cannot
  // outlive the run.
  ctrt::AccessTracer& tracer = run->context().tracer();
  tracer.Reset(ctrt::TraceMode::kTrigger);
  tracer.Arm(ctrt::Hook::kAccess, point, [&](const std::string& value) {
    result.point_hit = true;
    result.accessed_value = value;
    std::optional<std::string> target = feed.LiveTarget(value);
    if (!target.has_value()) {
      return;
    }
    result.injected = true;
    result.target_node = *target;
    // The injection phase covers the fault action itself — for pre-read
    // points that includes the recovery wait window.
    if (run_observer != nullptr) {
      ctobs::PhaseTable& phases = run_observer->phases();
      phases.injection_name = InjectionName(*system_, point.point_id);
      phases.injection_point = point.point_id;
      phases.injection_target = *target;
    }
    ctobs::ScopedPhase inject(run_observer, cluster.loop(), ctobs::Phase::kInjection);
    Strike(cluster, *target, point.point_id, kind);
  });

  result.outcome = Executor::Execute(*run, &baseline_, run_observer);
  result.point_hit = result.point_hit || tracer.trigger_fired();
  total_virtual_ms_.fetch_add(result.outcome.virtual_duration_ms, std::memory_order_relaxed);
  result.trace_hash = recorder.hash();

  if (run_observer != nullptr) {
    ctobs::MetricsShard& metrics = run_observer->metrics();
    if (result.point_hit) {
      metrics.Add("injection.point_hit");
    }
    if (result.injected) {
      metrics.Add("injection.injected");
    }
    metrics.Add("outcome." + MetricName(result.outcome.PrimarySymptom()));
    metrics.Add("trace.events", recorder.size());
    observer_->AbsorbRun(trace_slot, std::move(*run_observer));
  }
  // No reset needed: the tracer — armed trigger and all — dies with the run.
  return result;
}

std::vector<InjectionResult> FaultInjectionTester::TestAll(const ProfileResult& profile,
                                                           uint64_t seed, int jobs) {
  struct Task {
    ctrt::DynamicPoint point;
    ctanalysis::CrashPointKind kind;
  };
  std::vector<Task> tasks;
  for (const auto& point : profile.dynamic_access_points) {
    if (const ctanalysis::StaticCrashPoint* static_point = StaticPointOf(point.point_id)) {
      tasks.push_back({point, static_point->kind});
    }
  }
  CampaignEngine engine(jobs);
  return engine.Map(static_cast<int>(tasks.size()), [&](int i) {
    const Task& task = tasks[static_cast<size_t>(i)];
    return TestPoint(task.point, task.kind, seed + static_cast<uint64_t>(i), /*trace_slot=*/i);
  });
}

PairInjectionResult FaultInjectionTester::TestPair(const ctrt::DynamicPoint& first,
                                                   const ctrt::DynamicPoint& second) {
  PairInjectionResult result;
  result.first = first;
  result.second = second;
  // A point without a static crash point is struck as a pre-read.
  auto kind_of = [this](int point_id, std::string* location) {
    const ctanalysis::StaticCrashPoint* static_point = StaticPointOf(point_id);
    if (static_point == nullptr) {
      return ctanalysis::CrashPointKind::kPreRead;
    }
    *location = static_point->location;
    return static_point->kind;
  };
  const ctanalysis::CrashPointKind first_kind = kind_of(first.point_id, &result.first_location);
  const ctanalysis::CrashPointKind second_kind =
      kind_of(second.point_id, &result.second_location);

  auto run = system_->NewRun(system_->default_workload_size(), /*seed=*/0);
  ctsim::Cluster& cluster = run->cluster();
  StashFeed feed(cluster, filter_);

  auto strike = [&](const std::string& value, int point_id, ctanalysis::CrashPointKind kind,
                    bool* injected, std::string* target_node) {
    std::optional<std::string> target = feed.LiveTarget(value);
    if (target.has_value()) {
      *injected = true;
      *target_node = *target;
      Strike(cluster, *target, point_id, kind);
    }
  };
  ctrt::AccessTracer& tracer = run->context().tracer();
  tracer.Reset(ctrt::TraceMode::kTrigger);
  tracer.Arm(ctrt::Hook::kAccess, first, [&](const std::string& value) {
    // Chain the second injection before delivering the first fault: if the
    // first target is the currently executing node, Strike throws and the
    // second point must already be armed.
    tracer.Arm(ctrt::Hook::kAccess, second, [&](const std::string& second_value) {
      strike(second_value, second.point_id, second_kind, &result.second_injected,
             &result.second_target);
    });
    strike(value, first.point_id, first_kind, &result.first_injected, &result.first_target);
  });

  result.outcome = Executor::Execute(*run, &baseline_);
  // Both armed points die with the run's context.
  return result;
}

MultiCrashReport FaultInjectionTester::TestPairs(
    const ProfileResult& profile, const std::vector<InjectionResult>& single_results,
    int max_pairs, int jobs) {
  MultiCrashReport report;
  // Failure signatures already reachable with one crash: a pair only counts
  // as "multi-only" if its signature is new.
  std::set<std::string> single_signatures;
  for (const auto& single : single_results) {
    if (single.outcome.IsBug()) {
      single_signatures.insert(single.outcome.Signature());
    }
  }

  // Enumerate the (deterministically ordered, capped) pair list up front so
  // the runs can fan out across worker threads. The shared enumerator means
  // a static-only point set feeds the quadratic phase through the very same
  // walk the profiled set does.
  const std::vector<CrashPairCandidate> pairs =
      EnumerateCrashPairs(profile.dynamic_access_points, max_pairs);
  CampaignEngine engine(jobs);
  std::vector<PairInjectionResult> results =
      engine.Map(static_cast<int>(pairs.size()), [&](int i) {
        const CrashPairCandidate& task = pairs[static_cast<size_t>(i)];
        return TestPair(task.first, task.second);
      });

  // Aggregate in pair order: double summation and report rows come out the
  // same at any thread count.
  for (const PairInjectionResult& result : results) {
    ++report.pairs_tested;
    report.virtual_hours +=
        static_cast<double>(result.outcome.virtual_duration_ms) / 3'600'000.0;
    if (!result.outcome.IsBug()) {
      continue;
    }
    report.failing.push_back(result);
    if (single_signatures.count(result.outcome.Signature()) == 0) {
      report.multi_only.push_back(result);
    }
  }
  return report;
}

}  // namespace ctcore
