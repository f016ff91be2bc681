#include "src/core/trigger.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/core/campaign.h"
#include "src/obs/observer.h"
#include "src/obs/span.h"
#include "src/sim/exception.h"

namespace ctcore {

namespace {

// "cluster down" -> "cluster_down": metric names stay shell-friendly.
std::string MetricName(std::string text) {
  std::replace(text.begin(), text.end(), ' ', '_');
  return text;
}

}  // namespace

InjectionResult FaultInjectionTester::TestPoint(const ctrt::DynamicPoint& point,
                                                ctanalysis::CrashPointKind kind, uint64_t seed,
                                                int trace_slot) {
  InjectionResult result;
  result.point = point;
  result.kind = kind;
  result.mode = mode_;
  for (const auto& static_point : crash_points_->points) {
    if (static_point.access_point_id == point.point_id) {
      result.location = static_point.location;
      result.field_id = static_point.field_id;
      break;
    }
  }

  // Recorder before the run: the cluster holds a raw pointer to it, so it
  // must outlive the run. Every run is traced (the hash lands in the result);
  // the events themselves are kept only for a record store, and replay mode
  // verifies each one against the stored trace.
  const ctsim::Trace* expected = nullptr;
  if (replay_store_ != nullptr) {
    expected = replay_store_->Get(trace_slot);
    if (expected == nullptr) {
      throw ctsim::TraceDivergence("replay store has no trace for injection slot " +
                                   std::to_string(trace_slot));
    }
  }
  const bool recording = record_store_ != nullptr && trace_slot >= 0;
  ctsim::TraceRecorder recorder = expected != nullptr
                                      ? ctsim::TraceRecorder(expected)
                                      : ctsim::TraceRecorder(/*keep_events=*/recording);

  auto run = system_->NewRun(system_->default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();
  cluster.set_trace_recorder(&recorder);

  // Campaign observability: enable the run's observer so the phase spans the
  // executor opens, the injection span below, and the end-of-run counter copy
  // all record. Purely passive — no RNG draws, no scheduled events — so the
  // run's trace and hash are unchanged.
  ctobs::RunObserver* run_observer = &run->context().observer();
  if (observer_ != nullptr && trace_slot >= 0) {
    run_observer->Enable();
  }
  // Injection spans carry the model's vocabulary: the anchor frame of the
  // armed point, renamed by a SpanDecl when the model declares one.
  const ctmodel::ProgramModel& model = system_->model();
  std::string anchor = ctmodel::ProgramModel::ContextMethodOf(model.access_point(point.point_id));
  const ctmodel::SpanDecl* span_decl = model.FindSpanForMethod(anchor);
  const std::string injection_span_name =
      "inject:" + (span_decl != nullptr ? span_decl->name : anchor);

  // Online log analysis: one agent per node feeding the custom stash.
  ctlog::CustomStash stash(filter_);
  std::vector<std::unique_ptr<ctlog::LogstashAgent>> agents;
  {
    ctobs::ScopedSpan arm(run_observer, &cluster.loop(), "window-arm", "phase");
    for (const auto& node_id : cluster.node_ids()) {
      agents.push_back(std::make_unique<ctlog::LogstashAgent>(node_id, &stash));
    }
    cluster.logs().Subscribe([&agents](const ctlog::Instance& instance) {
      for (auto& agent : agents) {
        agent->OnInstance(instance);
      }
    });
  }

  // Control-center callback (Fig. 7): resolve the accessed value to a node
  // and inject the fault. Armed on the run's own tracer, so concurrent
  // TestPoint calls cannot clobber each other and the armed trigger cannot
  // outlive the run.
  ctrt::AccessTracer& tracer = run->context().tracer();
  tracer.Reset(ctrt::TraceMode::kTrigger);
  tracer.ArmAccessTrigger(point, [&](const ctrt::AccessEvent& event) {
    result.point_hit = true;
    result.accessed_value = event.value;
    auto target = stash.Lookup(event.value);
    if (!target.has_value()) {
      return;  // No associated node: the procedure simply returns (§3.2.2).
    }
    if (!cluster.IsAlive(*target)) {
      return;
    }
    result.injected = true;
    result.target_node = *target;
    // The span covers the fault action itself — for pre-read points that
    // includes the recovery wait window; closure is exception-safe, so a
    // NodeCrashedSignal unwinding through here still ends the span.
    ctobs::ScopedSpan inject(run_observer, &cluster.loop(), injection_span_name, "injection");
    inject.AddArg("point", std::to_string(point.point_id));
    inject.AddArg("anchor", anchor);
    inject.AddArg("target", *target);
    if (mode_ == InjectionMode::kNetworkFault) {
      // Fault-on-appearance: cut the target off for the window instead of
      // killing it. The failure detector expires it, recovery starts, then
      // the heal lets the presumed-dead node's messages race the recovered
      // state — the handler (and the target) keep running throughout.
      auto window = network_windows_.find(point.point_id);
      ctsim::Time partition_ms =
          window != network_windows_.end() ? window->second : default_partition_ms_;
      cluster.PartitionNodes({*target}, partition_ms);
      return;
    }
    bool killing_current = (*target == cluster.current_node());
    if (kind == ctanalysis::CrashPointKind::kPreRead) {
      // Graceful shutdown lets the cluster learn about the departure without
      // waiting out the failure detector; the wait window then lets recovery
      // run before the instrumented read proceeds.
      cluster.Shutdown(*target);
      if (killing_current) {
        throw ctsim::NodeCrashedSignal{};
      }
      cluster.loop().RunFor(pre_read_wait_ms_);
    } else {
      cluster.Crash(*target);
      if (killing_current) {
        throw ctsim::NodeCrashedSignal{};
      }
    }
  });

  result.outcome = Executor::Execute(*run, &baseline_);
  result.point_hit = result.point_hit || tracer.trigger_fired();
  total_virtual_ms_.fetch_add(result.outcome.virtual_duration_ms, std::memory_order_relaxed);
  recorder.FinishReplay();  // a recording longer than the run is a divergence
  result.trace_hash = recorder.hash();
  if (recording) {
    record_store_->Put(trace_slot, recorder.trace());
  }

  if (observer_ != nullptr && trace_slot >= 0) {
    ctobs::MetricsShard& metrics = run_observer->metrics();
    if (result.point_hit) {
      metrics.Add("injection.point_hit");
    }
    if (result.injected) {
      metrics.Add("injection.injected");
    }
    metrics.Add("outcome." + MetricName(result.outcome.PrimarySymptom()));
    if (expected != nullptr) {
      metrics.Add("runs.replayed");
    }
    metrics.Add("trace.events", recorder.size());
    if (result.outcome.IsBug()) {
      // Failure dossier: the canonical signature of this failing run —
      // everything downstream dedup clustering keys on and a replay tool
      // needs to re-execute exactly this run.
      ctobs::Dossier dossier;
      dossier.system = system_->name();
      dossier.slot = trace_slot;
      dossier.seed = seed;
      dossier.failed_invariant = result.outcome.PrimarySymptom();
      if (!result.outcome.uncommon_exceptions.empty()) {
        dossier.failed_invariant += ": " + result.outcome.uncommon_exceptions.front();
      }
      if (result.injected) {
        ctobs::DossierPoint injected;
        injected.point_id = point.point_id;
        injected.call_string = point.stack_key;
        injected.target_node = result.target_node;
        injected.mode = mode_ == InjectionMode::kNetworkFault
                            ? "partition"
                            : (kind == ctanalysis::CrashPointKind::kPreRead ? "shutdown"
                                                                            : "crash");
        dossier.injected_points.push_back(std::move(injected));
      }
      dossier.recovery_phase_span =
          result.injected ? injection_span_name
                          : (result.outcome.finished ? "recovery-check" : "workload");
      char hash_prefix[16];
      std::snprintf(hash_prefix, sizeof(hash_prefix), "%08llx",
                    static_cast<unsigned long long>(result.trace_hash >> 32));
      dossier.trace_hash_prefix = hash_prefix;
      const ctsim::FaultPlan& plan = cluster.fault_plan();
      std::string fault_summary;
      auto append_part = [&fault_summary](const std::string& part) {
        if (!fault_summary.empty()) {
          fault_summary += " ";
        }
        fault_summary += part;
      };
      if (!plan.default_link.Inert() || !plan.links.empty()) {
        append_part("link-faults=" +
                    std::to_string(plan.links.size() + (plan.default_link.Inert() ? 0 : 1)));
      }
      if (cluster.partition_epochs() > 0) {
        append_part("partition-epochs=" + std::to_string(cluster.partition_epochs()));
      }
      if (!plan.timer_skew_permille.empty()) {
        append_part("timer-skew=" + std::to_string(plan.timer_skew_permille.size()));
      }
      dossier.fault_plan = fault_summary;
      dossier.workload =
          system_->workload_name() + " x" + std::to_string(system_->default_workload_size());
      observer_->AbsorbDossier(trace_slot, std::move(dossier));
    }
    observer_->AbsorbRun(trace_slot, std::move(*run_observer));
  }
  // No reset needed: the tracer — armed trigger and all — dies with the run.
  return result;
}

std::vector<InjectionResult> FaultInjectionTester::TestAll(const ProfileResult& profile,
                                                           uint64_t seed, int jobs) {
  // Static point id → kind.
  std::map<int, ctanalysis::CrashPointKind> kinds;
  for (const auto& static_point : crash_points_->points) {
    kinds[static_point.access_point_id] = static_point.kind;
  }
  struct Task {
    ctrt::DynamicPoint point;
    ctanalysis::CrashPointKind kind;
  };
  std::vector<Task> tasks;
  for (const auto& point : profile.dynamic_access_points) {
    auto it = kinds.find(point.point_id);
    if (it == kinds.end()) {
      continue;
    }
    tasks.push_back({point, it->second});
  }
  CampaignEngine engine(jobs);
  return engine.Map(static_cast<int>(tasks.size()), [&](int i) {
    const Task& task = tasks[static_cast<size_t>(i)];
    return TestPoint(task.point, task.kind, seed + static_cast<uint64_t>(i), /*trace_slot=*/i);
  });
}

}  // namespace ctcore
