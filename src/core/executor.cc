#include "src/core/executor.h"

#include "src/common/check.h"
#include "src/obs/observer.h"

namespace ctcore {

std::string RunOutcome::PrimarySymptom() const {
  if (cluster_down) {
    return "cluster down";
  }
  if (hang) {
    return "system hang";
  }
  if (failed) {
    return "job failure";
  }
  if (!uncommon_exceptions.empty()) {
    return "uncommon exception";
  }
  if (timeout_issue) {
    return "timeout";
  }
  return "ok";
}

std::string RunOutcome::Signature() const {
  return uncommon_exceptions.empty() ? PrimarySymptom()
                                     : PrimarySymptom() + ": " + uncommon_exceptions.front();
}

RunOutcome Executor::Execute(WorkloadRun& run, const OracleBaseline* baseline,
                             ctobs::RunObserver* observer) {
  // Route every hook the run fires to the run's own tracer: this is what lets
  // worker threads execute injection runs concurrently without sharing state.
  ctrt::ScopedRunContext bind_context(run.context());
  RunOutcome outcome;
  ctsim::Cluster& cluster = run.cluster();
  ctsim::EventLoop& loop = cluster.loop();
  const ctsim::Time start = loop.Now();
  const ctsim::Time expected = run.ExpectedDurationMs();
  const ctsim::Time timeout_deadline = start + expected * kTimeoutFactor;
  const ctsim::Time hang_deadline = start + expected * kHangFactor;

  if (observer != nullptr) {
    // Causal-flow observation, on observed runs only: the cluster stamps
    // posted messages and records every delivery into the run's flow
    // recorder, passively (no RNG, no scheduling), so the trace hash and
    // SystemReport never move.
    cluster.set_flow_recorder(&observer->flows());
  }

  bool over_timeout = false;
  {
    ctobs::ScopedPhase workload(observer, loop, ctobs::Phase::kWorkload);
    cluster.StartAll();
    run.Start();
    while (!run.JobFinished() && !run.JobFailed() && !cluster.cluster_down()) {
      if (loop.Now() > hang_deadline || loop.pending_events() == 0) {
        break;
      }
      if (loop.Now() > timeout_deadline) {
        over_timeout = true;  // keep running: distinguishes timeout from hang
      }
      loop.RunOne();
    }
  }

  {
    ctobs::ScopedPhase recovery(observer, loop, ctobs::Phase::kRecoveryCheck);
    // Grace drain: the cluster keeps running briefly after the client sees the
    // job finish, so post-completion bookkeeping (application cleanup, final
    // releases) executes and its crash points are observable.
    if (run.JobFinished() && !cluster.cluster_down()) {
      loop.RunFor(3000);
    }
  }

  cluster.set_flow_recorder(nullptr);

  outcome.virtual_duration_ms = loop.Now() - start;
  outcome.finished = run.JobFinished();
  outcome.failed = run.JobFailed();
  outcome.cluster_down = cluster.cluster_down();
  outcome.hang = !outcome.finished && !outcome.failed && !outcome.cluster_down;
  outcome.timeout_issue = outcome.finished && over_timeout;

  if (baseline != nullptr) {
    for (const auto& [type, message] : ExceptionsIn(cluster.logs())) {
      if (baseline->common_exception_types.count(type) == 0) {
        outcome.uncommon_exceptions.push_back(type + ": " + message);
      }
    }
  }

  if (observer != nullptr) {
    // Copy the simulator's native counters into the run's shard. All of these
    // are derived from virtual-time events, so the aggregated values are
    // independent of how runs were spread over worker threads.
    ctobs::MetricsShard& metrics = observer->metrics();
    metrics.Add("events.dispatched", loop.executed_events());
    metrics.Add("events.scheduled", loop.scheduled_events());
    metrics.Add("events.skipped_dead_owner", loop.skipped_dead_owner_events());
    metrics.SetGauge("events.peak_pending", static_cast<int64_t>(loop.peak_pending_events()));
    metrics.SetGauge("sim.interned_symbols", static_cast<int64_t>(cluster.interner().size()));
    metrics.Add("messages.delivered", cluster.delivered_messages());
    metrics.Add("messages.dropped_dead", cluster.dropped_messages());
    metrics.Add("messages.dropped_plan", cluster.plan_dropped_messages());
    metrics.Add("partition.epochs", static_cast<uint64_t>(cluster.partition_epochs()));
    metrics.Add("faults.crashes", static_cast<uint64_t>(cluster.crash_count()));
    metrics.Add("faults.shutdowns", static_cast<uint64_t>(cluster.shutdown_count()));
    metrics.SetGauge("cluster.nodes", static_cast<int64_t>(cluster.nodes().size()));
    metrics.Observe("run.virtual_ms", outcome.virtual_duration_ms);
  }
  return outcome;
}

std::vector<std::pair<std::string, std::string>> Executor::ExceptionsIn(
    const ctlog::LogStore& logs) {
  // The dispatch boundary logs exceptions through this exact statement.
  static const int kStmt = ctlog::StatementRegistry::Instance().Register(
      ctlog::Level::kError, "Uncommon exception {} : {}", "Node.dispatch");
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& instance : logs.instances()) {
    if (instance.statement_id == kStmt && instance.args.size() == 2) {
      out.emplace_back(instance.args[0], instance.args[1]);
    }
  }
  return out;
}

void Executor::AccumulateBaseline(const ctlog::LogStore& logs, OracleBaseline* baseline) {
  for (const auto& [type, message] : ExceptionsIn(logs)) {
    baseline->common_exception_types.insert(type);
  }
}

}  // namespace ctcore
