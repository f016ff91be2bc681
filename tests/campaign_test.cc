// Parallel injection-campaign engine: Map ordering/exception semantics, and
// the headline determinism guarantee — the full driver on mini-YARN produces
// a field-for-field identical SystemReport at jobs=1 and jobs=4. Observed
// campaigns: passivity, the phase table, flow DAGs, and ZooKeeper's
// heartbeat share of deliveries as its quorum grows.
#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/campaign.h"
#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
#include "src/runtime/run_context.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

TEST(ResolveJobs, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ctcore::ResolveJobs(1), 1);
  EXPECT_EQ(ctcore::ResolveJobs(7), 7);
  EXPECT_GE(ctcore::ResolveJobs(0), 1);
  EXPECT_GE(ctcore::ResolveJobs(-3), 1);
}

TEST(CampaignEngine, MapReturnsResultsInIndexOrder) {
  ctcore::CampaignEngine engine(4);
  std::vector<int> squares = engine.Map(100, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(CampaignEngine, MapActuallyFansOut) {
  ctcore::CampaignEngine engine(4);
  std::mutex mu;
  std::set<std::thread::id> threads;
  engine.Map(64, [&](int i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    // Hold the task long enough that one worker cannot drain the queue alone.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return i;
  });
  EXPECT_GT(threads.size(), 1u);
}

TEST(CampaignEngine, MapHandlesEmptyAndSingleTask) {
  ctcore::CampaignEngine engine(8);
  EXPECT_TRUE(engine.Map(0, [](int i) { return i; }).empty());
  std::vector<int> one = engine.Map(1, [](int i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(CampaignEngine, MapRethrowsTaskException) {
  ctcore::CampaignEngine engine(4);
  EXPECT_THROW(engine.Map(16,
                          [](int i) {
                            if (i == 7) {
                              throw std::runtime_error("task 7 failed");
                            }
                            return i;
                          }),
               std::runtime_error);
}

TEST(RunContextBinding, WorkerThreadsSeeTheirOwnTracer) {
  // Two threads each bind a context and record through Instance(): neither
  // observes the other's frames.
  ctrt::RunContext a;
  ctrt::RunContext b;
  std::atomic<bool> ok_a{false};
  std::atomic<bool> ok_b{false};
  auto probe = [](ctrt::RunContext& context, std::atomic<bool>* ok) {
    ctrt::ScopedRunContext bind(context);
    ctrt::AccessTracer& tracer = ctrt::AccessTracer::Instance();
    EXPECT_EQ(&tracer, &context.tracer());
    tracer.PushFrame("Worker.handle");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ok->store(tracer.StackKey() == "Worker.handle");
    tracer.PopFrame();
  };
  std::thread ta(probe, std::ref(a), &ok_a);
  std::thread tb(probe, std::ref(b), &ok_b);
  ta.join();
  tb.join();
  EXPECT_TRUE(ok_a.load());
  EXPECT_TRUE(ok_b.load());
}

bool SameOutcome(const ctcore::RunOutcome& x, const ctcore::RunOutcome& y) {
  return x.finished == y.finished && x.failed == y.failed && x.hang == y.hang &&
         x.timeout_issue == y.timeout_issue && x.cluster_down == y.cluster_down &&
         x.uncommon_exceptions == y.uncommon_exceptions &&
         x.virtual_duration_ms == y.virtual_duration_ms;
}

TEST(ParallelDeterminism, YarnReportIdenticalAtJobs1AndJobs4) {
  ctyarn::YarnSystem yarn;
  ctcore::CrashTunerDriver driver;

  ctcore::DriverOptions sequential;
  sequential.jobs = 1;
  ctcore::SystemReport seq = driver.Run(yarn, sequential);

  ctcore::DriverOptions parallel;
  parallel.jobs = 4;
  ctcore::SystemReport par = driver.Run(yarn, parallel);

  // Injection outcomes field-for-field, in campaign order.
  ASSERT_EQ(seq.injections.size(), par.injections.size());
  for (size_t i = 0; i < seq.injections.size(); ++i) {
    const ctcore::InjectionResult& s = seq.injections[i];
    const ctcore::InjectionResult& p = par.injections[i];
    EXPECT_EQ(s.point.point_id, p.point.point_id) << "injection " << i;
    EXPECT_EQ(s.point.stack_key, p.point.stack_key) << "injection " << i;
    EXPECT_EQ(s.kind, p.kind) << "injection " << i;
    EXPECT_EQ(s.location, p.location) << "injection " << i;
    EXPECT_EQ(s.field_id, p.field_id) << "injection " << i;
    EXPECT_EQ(s.point_hit, p.point_hit) << "injection " << i;
    EXPECT_EQ(s.injected, p.injected) << "injection " << i;
    EXPECT_EQ(s.target_node, p.target_node) << "injection " << i;
    EXPECT_EQ(s.accessed_value, p.accessed_value) << "injection " << i;
    EXPECT_TRUE(SameOutcome(s.outcome, p.outcome)) << "injection " << i;
  }

  // Bug rows and counters.
  ASSERT_EQ(seq.bugs.size(), par.bugs.size());
  for (size_t i = 0; i < seq.bugs.size(); ++i) {
    EXPECT_EQ(seq.bugs[i].bug_id, par.bugs[i].bug_id);
    EXPECT_EQ(seq.bugs[i].exposing_points.size(), par.bugs[i].exposing_points.size());
  }
  EXPECT_EQ(seq.timeout_issues.size(), par.timeout_issues.size());
  EXPECT_EQ(seq.dynamic_crash_points, par.dynamic_crash_points);
  EXPECT_DOUBLE_EQ(seq.test_virtual_hours, par.test_virtual_hours);

  // Byte-identical serialized reports, modulo the wall-clock fields (the only
  // nondeterministic members by construction).
  seq.analysis_wall_seconds = par.analysis_wall_seconds = 0;
  seq.test_wall_seconds = par.test_wall_seconds = 0;
  EXPECT_EQ(ctcore::ReportToJson(seq), ctcore::ReportToJson(par));
}

// Every field a baseline report keeps: trial index, target, fault time and
// window, IO point, outcome, and the triaged bug ids.
void ExpectSameBaselineReport(const ctcore::BaselineReport& seq,
                              const ctcore::BaselineReport& par) {
  EXPECT_EQ(seq.trials, par.trials);
  EXPECT_EQ(seq.virtual_hours, par.virtual_hours);
  ASSERT_EQ(seq.failing_trials.size(), par.failing_trials.size());
  for (size_t i = 0; i < seq.failing_trials.size(); ++i) {
    const ctcore::BaselineTrial& s = seq.failing_trials[i];
    const ctcore::BaselineTrial& p = par.failing_trials[i];
    EXPECT_EQ(s.trial_index, p.trial_index) << "failing trial " << i;
    EXPECT_EQ(s.injected, p.injected) << "failing trial " << i;
    EXPECT_EQ(s.target_node, p.target_node) << "failing trial " << i;
    EXPECT_EQ(s.crash_time_ms, p.crash_time_ms) << "failing trial " << i;
    EXPECT_EQ(s.partition_ms, p.partition_ms) << "failing trial " << i;
    EXPECT_EQ(s.io_point.point_id, p.io_point.point_id) << "failing trial " << i;
    EXPECT_EQ(s.io_point.stack_key, p.io_point.stack_key) << "failing trial " << i;
    EXPECT_EQ(s.io_before, p.io_before) << "failing trial " << i;
    EXPECT_TRUE(SameOutcome(s.outcome, p.outcome)) << "failing trial " << i;
  }
  ASSERT_EQ(seq.bugs.size(), par.bugs.size());
  for (size_t i = 0; i < seq.bugs.size(); ++i) {
    EXPECT_EQ(seq.bugs[i].bug_id, par.bugs[i].bug_id);
    EXPECT_EQ(seq.bugs[i].exposing_points.size(), par.bugs[i].exposing_points.size());
  }
}

TEST(ParallelDeterminism, BaselineReportsIdenticalAtJobs1AndJobs4) {
  ctyarn::YarnSystem yarn;
  const ctcore::RandomCrashInjector random;
  const ctcore::BaselineReport random_seq = random.Run(yarn, 40, 20190427, /*jobs=*/1);
  ASSERT_FALSE(random_seq.bugs.empty()) << "the comparison needs triaged trials";
  ExpectSameBaselineReport(random_seq, random.Run(yarn, 40, 20190427, /*jobs=*/4));

  const ctcore::NetworkRandomInjector network;
  const ctcore::BaselineReport network_seq = network.Run(yarn, 40, 20190427, /*jobs=*/1);
  ASSERT_FALSE(network_seq.bugs.empty()) << "the comparison needs triaged trials";
  ExpectSameBaselineReport(network_seq, network.Run(yarn, 40, 20190427, /*jobs=*/4));

  const ctcore::IoFaultInjector io;
  const ctcore::BaselineReport io_seq = io.Run(yarn, 99, /*jobs=*/1);
  ASSERT_FALSE(io_seq.bugs.empty()) << "the comparison needs triaged trials";
  ExpectSameBaselineReport(io_seq, io.Run(yarn, 99, /*jobs=*/4));
}

TEST(ScaleDeterminism, YarnReportIdenticalAtJobs1AndJobs4AtScale8) {
  // The --scale knob multiplies the deployment (workers, tasks) but must not
  // cost determinism: the scaled campaign serializes byte-identically at any
  // worker count.
  ctyarn::YarnSystem yarn;
  yarn.set_scale(8);
  ASSERT_EQ(yarn.scale(), 8);
  ASSERT_EQ(yarn.default_workload_size(), 24);
  ctcore::CrashTunerDriver driver;

  ctcore::DriverOptions sequential;
  sequential.jobs = 1;
  ctcore::SystemReport seq = driver.Run(yarn, sequential);

  ctcore::DriverOptions parallel;
  parallel.jobs = 4;
  ctcore::SystemReport par = driver.Run(yarn, parallel);

  EXPECT_EQ(seq.trace_hash, par.trace_hash);
  seq.analysis_wall_seconds = par.analysis_wall_seconds = 0;
  seq.test_wall_seconds = par.test_wall_seconds = 0;
  EXPECT_EQ(ctcore::ReportToJson(seq), ctcore::ReportToJson(par));
}

TEST(ParallelDeterminism, ObservationIsPassiveAndSnapshotDeterministic) {
  ctyarn::YarnSystem yarn;
  ctcore::CrashTunerDriver driver;

  // Baseline: no observer.
  ctcore::SystemReport plain = driver.Run(yarn);

  // Observed at jobs=1 and jobs=4.
  ctobs::CampaignObserver obs_seq;
  ctcore::DriverOptions sequential;
  sequential.jobs = 1;
  sequential.observer = &obs_seq;
  ctcore::SystemReport seq = driver.Run(yarn, sequential);

  ctobs::CampaignObserver obs_par;
  ctcore::DriverOptions parallel;
  parallel.jobs = 4;
  parallel.observer = &obs_par;
  ctcore::SystemReport par = driver.Run(yarn, parallel);

  // Observation must not perturb the campaign: the report with metrics on is
  // byte-identical to the report with metrics off (wall fields zeroed).
  plain.analysis_wall_seconds = seq.analysis_wall_seconds = par.analysis_wall_seconds = 0;
  plain.test_wall_seconds = seq.test_wall_seconds = par.test_wall_seconds = 0;
  EXPECT_EQ(ctcore::ReportToJson(plain), ctcore::ReportToJson(seq));
  EXPECT_EQ(ctcore::ReportToJson(plain), ctcore::ReportToJson(par));

  // The deterministic half of the snapshot (everything outside "wall") is
  // byte-identical across thread counts; the wall sidecar records the jobs.
  ctobs::MetricsSnapshot snap_seq;
  snap_seq.systems.push_back(obs_seq.Finalize());
  ctobs::MetricsSnapshot snap_par;
  snap_par.systems.push_back(obs_par.Finalize());
  ASSERT_EQ(snap_seq.systems.size(), 1u);
  EXPECT_EQ(snap_seq.systems[0].jobs, 1);
  EXPECT_EQ(snap_par.systems[0].jobs, 4);
  EXPECT_GT(snap_seq.systems[0].runs, 0);
  EXPECT_EQ(snap_seq.ToJson(/*include_wall=*/false),
            snap_par.ToJson(/*include_wall=*/false));

  // Causal flows actually recorded.
  EXPECT_GT(snap_seq.systems[0].flows.messages, 0u);

  // Failure dossiers are part of the deterministic observation: the same
  // failing runs produce the same dossiers at any worker count.
  const std::vector<ctobs::Dossier> dossiers_seq = obs_seq.dossiers();
  const std::vector<ctobs::Dossier> dossiers_par = obs_par.dossiers();
  ASSERT_EQ(dossiers_seq.size(), dossiers_par.size());
  EXPECT_GT(dossiers_seq.size(), 0u);  // mini-YARN campaigns do find bugs
  for (size_t i = 0; i < dossiers_seq.size(); ++i) {
    EXPECT_EQ(dossiers_seq[i].ToJson(), dossiers_par[i].ToJson());
    // And each round-trips through the v1 reader.
    const std::string json = dossiers_seq[i].ToJson();
    EXPECT_EQ(ctobs::Dossier::FromJsonText(json).ToJson(), json);
  }
}

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> FiveSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

// The finalized observation of one observed jobs=1 crash campaign at the
// system's scale.
ctobs::SystemMetrics ObservedCampaign(const ctcore::SystemUnderTest& system) {
  ctobs::CampaignObserver observer;
  ctcore::DriverOptions options;
  options.jobs = 1;
  options.observer = &observer;
  (void)ctcore::CrashTunerDriver().Run(system, options);
  return observer.Finalize();
}

TEST(PhaseTable, PhasesCoverEveryObservedRun) {
  // Every observed campaign run stamps workload (cluster start-up included)
  // and recovery-check once, and the injection phase once per landed fault,
  // named after its anchor frame. Workload and recovery-check partition each
  // run's virtual time.
  for (const auto& system : FiveSystems()) {
    SCOPED_TRACE(system->name());
    const ctobs::SystemMetrics metrics = ObservedCampaign(*system);
    const auto& histograms = metrics.metrics.histograms();
    auto count = [&](const std::string& name) {
      auto it = histograms.find(name);
      return it == histograms.end() ? uint64_t{0} : it->second.count();
    };
    auto sum = [&](const std::string& name) {
      auto it = histograms.find(name);
      return it == histograms.end() ? uint64_t{0} : it->second.sum();
    };
    ASSERT_GT(metrics.runs, 0);
    const uint64_t runs = static_cast<uint64_t>(metrics.runs);
    for (const char* phase : {"phase.workload", "phase.recovery-check"}) {
      EXPECT_EQ(count(phase), runs) << phase;
    }
    uint64_t named_injections = 0;
    for (const auto& [name, value] : metrics.metrics.counters()) {
      if (name.rfind("span.inject:", 0) == 0) {
        named_injections += value;
      }
    }
    EXPECT_GT(count("phase.injection"), 0u);
    EXPECT_EQ(count("phase.injection"), metrics.metrics.counter("injection.injected"));
    EXPECT_EQ(count("phase.injection"), named_injections);
    EXPECT_EQ(sum("phase.workload") + sum("phase.recovery-check"), sum("run.virtual_ms"));
  }
}

TEST(FlowDag, DeliveriesChainToTheirCauses) {
  // Golden-run flow check on real campaigns: run each system observed, then
  // validate the flow DAG of each absorbed run via the finalized statistics —
  // every observed delivery is recorded exactly once, parents always precede
  // children (FlowRecorder depth relies on it), the root count is sane, and
  // every delivery is counted under its method.
  for (const auto& system : FiveSystems()) {
    SCOPED_TRACE(system->name());
    const ctobs::SystemMetrics metrics = ObservedCampaign(*system);
    ASSERT_GT(metrics.flows.messages, 0u);
    EXPECT_EQ(metrics.flows.messages, metrics.metrics.counters().at("messages.delivered"));
    EXPECT_GT(metrics.flows.roots, 0u);
    EXPECT_LE(metrics.flows.roots, metrics.flows.messages);
    // Handlers send messages while handling deliveries, so chains must nest.
    EXPECT_GE(metrics.flows.max_depth, 2u);
    unsigned long long per_method_total = 0;
    for (const auto& [method, count] : metrics.flows.per_method) {
      EXPECT_FALSE(method.empty());
      per_method_total += count;
    }
    EXPECT_EQ(per_method_total, metrics.flows.messages);
  }
}

TEST(FlowDag, HeartbeatShareGrowsWithTheQuorum) {
  // Every ZooKeeper peer heartbeats every other each gossip round, so
  // peerHeartbeat is the most-delivered method, and its share of deliveries
  // grows with the quorum: the scaling signal ctstat --flows shows.
  double previous_share = 0;
  for (int scale : {1, 2}) {
    SCOPED_TRACE(scale);
    ctzk::ZkSystem zookeeper;
    zookeeper.set_scale(scale);
    const ctobs::FlowStats flows = ObservedCampaign(zookeeper).flows;
    ASSERT_GT(flows.messages, 0u);
    const auto heartbeats = flows.per_method.find("peerHeartbeat");
    ASSERT_NE(heartbeats, flows.per_method.end());
    for (const auto& [method, count] : flows.per_method) {
      EXPECT_LE(count, heartbeats->second) << method << " outnumbers peerHeartbeat";
    }
    const double share =
        static_cast<double>(heartbeats->second) / static_cast<double>(flows.messages);
    EXPECT_GT(share, previous_share);
    previous_share = share;
  }
}

}  // namespace
