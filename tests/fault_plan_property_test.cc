// Property tests for deterministic network-fault injection.
//
// Run-level: 25 seeded random fault plans are applied to each of the five
// systems; the same ⟨seed, plan⟩ must produce the same event trace hash on a
// second run (the determinism contract of fault_plan.h). The first run's
// recorder only hashes and the second keeps its events, so the sweep also
// checks that hashing while recording gives the hash of the serialized
// trace, over every kind of record the plans produce.
//
// Driver-level: a network-fault campaign recorded at jobs=1 replays at
// jobs=4 with a byte-identical SystemReport, the replayed campaign includes
// the system's declared message-race bug, and replaying a truncated or
// corrupted trace fails loudly with ctsim::TraceDivergence.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/report_writer.h"
#include "src/sim/cluster.h"
#include "src/sim/fault_plan.h"
#include "src/sim/trace.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::SystemReport;
using ctsim::FaultPlan;

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

// A random plan drawn from one Rng stream. The partition/skew victims are
// kept as indices — node ids differ per system — and materialized against
// the run's node list. Half the partitions are one-way and half the plans
// carry a timer-skewed node, so the determinism sweep covers both extended
// directives.
struct PlannedFaults {
  FaultPlan plan;
  uint64_t victim_index = 0;
  bool has_partition = false;
  bool one_way = false;
  uint64_t partition_start = 0;
  uint64_t partition_len = 0;
  bool has_skew = false;
  uint64_t skew_index = 0;
  int skew_permille = 1000;
};

PlannedFaults DrawPlan(ctcommon::Rng& rng) {
  PlannedFaults drawn;
  drawn.plan.default_link.drop_probability = static_cast<double>(rng.Uniform(0, 20)) / 100.0;
  drawn.plan.default_link.extra_delay_ms = rng.Uniform(0, 3);
  drawn.plan.default_link.duplicate_probability = static_cast<double>(rng.Uniform(0, 20)) / 100.0;
  drawn.plan.default_link.reorder_window_ms = rng.Uniform(0, 5);
  drawn.has_partition = rng.Chance(0.5);
  if (drawn.has_partition) {
    drawn.partition_start = rng.Uniform(0, 2000);
    drawn.partition_len = rng.Uniform(200, 3000);
    drawn.victim_index = rng.Uniform(0, 1 << 16);  // reduced per run
    drawn.one_way = rng.Chance(0.5);
  }
  drawn.has_skew = rng.Chance(0.5);
  if (drawn.has_skew) {
    drawn.skew_index = rng.Uniform(0, 1 << 16);
    drawn.skew_permille = static_cast<int>(rng.Uniform(500, 2500));
  }
  return drawn;
}

// One run of `system` under `drawn`, traced into `recorder`.
void TracedRun(const ctcore::SystemUnderTest& system, const PlannedFaults& drawn, uint64_t seed,
               ctsim::TraceRecorder* recorder) {
  auto run = system.NewRun(system.default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();
  cluster.set_trace_recorder(recorder);
  FaultPlan plan = drawn.plan;
  std::vector<std::string> eligible;
  for (ctsim::Node* node : cluster.nodes()) {
    if (!node->workload_driver()) {
      eligible.push_back(node->id());
    }
  }
  if (drawn.has_partition) {
    ctsim::PartitionDirective directive;
    directive.start_ms = drawn.partition_start;
    directive.heal_ms = drawn.partition_start + drawn.partition_len;
    directive.group = {eligible[drawn.victim_index % eligible.size()]};
    directive.one_way = drawn.one_way;
    plan.partitions.push_back(directive);
  }
  if (drawn.has_skew) {
    plan.timer_skew_permille[eligible[drawn.skew_index % eligible.size()]] = drawn.skew_permille;
  }
  cluster.InstallFaultPlan(plan);
  ctcore::Executor::Execute(*run, /*baseline=*/nullptr);
}

TEST(FaultPlanProperty, SameSeedAndPlanYieldTheSameTraceHash) {
  ctcommon::Rng rng(0xfa17);
  std::vector<PlannedFaults> plans;
  for (int i = 0; i < 25; ++i) {
    plans.push_back(DrawPlan(rng));
  }
  std::set<std::string> kinds;
  for (const auto& system : AllSystems()) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const uint64_t seed = 4242 + 31ull * p;
      ctsim::TraceRecorder hash_only;
      TracedRun(*system, plans[p], seed, &hash_only);
      ctsim::TraceRecorder keeping(/*keep_events=*/true);
      TracedRun(*system, plans[p], seed, &keeping);
      const ctsim::Trace& trace = keeping.trace();
      EXPECT_EQ(hash_only.hash(), keeping.hash())
          << system->name() << " plan#" << p << " diverged on an identical ⟨seed, plan⟩";
      EXPECT_EQ(hash_only.size(), trace.size()) << system->name() << " plan#" << p;
      EXPECT_EQ(hash_only.hash(), trace.Hash())
          << system->name() << " plan#" << p << ": streamed hash differs from the kept trace's";
      EXPECT_EQ(hash_only.hash(), ctsim::Trace::Parse(trace.Serialize()).Hash())
          << system->name() << " plan#" << p << ": streamed hash differs from the serialized trace's";
      for (const ctsim::TraceEvent& event : trace.events()) {
        kinds.insert(event.kind);
      }
    }
  }
  // The sweep reaches every record kind a fault plan produces. Nothing
  // crashes in these runs; the crash-mode campaign below covers those kinds.
  for (const char* kind : {"deliver", "drop.partition", "drop.link", "dup", "timer", "start",
                           "partition", "partition.oneway", "timer-skew"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "no plan produced a \"" << kind << "\" record";
  }
}

std::string Serialize(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

// An injection run keeps its events only for a record store and otherwise
// just hashes them. Both paths must give every run the same hash, over the
// crash, shutdown and dead-node records of the paper's own trigger.
TEST(FaultPlanProperty, CrashCampaignHashesMatchItsRecordedTraces) {
  std::set<std::string> kinds;
  for (const auto& system : AllSystems()) {
    const SystemReport hashed = CrashTunerDriver().Run(*system, DriverOptions());
    ctcore::TraceStore recorded;
    DriverOptions record;
    record.record_traces = &recorded;
    const SystemReport kept = CrashTunerDriver().Run(*system, record);
    EXPECT_EQ(Serialize(hashed), Serialize(kept)) << system->name();
    ASSERT_EQ(recorded.size(), hashed.injections.size()) << system->name();
    for (size_t slot = 0; slot < hashed.injections.size(); ++slot) {
      const ctsim::Trace* trace = recorded.Get(static_cast<int>(slot));
      ASSERT_NE(trace, nullptr) << system->name() << " slot " << slot;
      EXPECT_EQ(hashed.injections[slot].trace_hash, trace->Hash())
          << system->name() << " slot " << slot;
      EXPECT_EQ(hashed.injections[slot].trace_hash, ctsim::Trace::Parse(trace->Serialize()).Hash())
          << system->name() << " slot " << slot;
      for (const ctsim::TraceEvent& event : trace->events()) {
        kinds.insert(event.kind);
      }
    }
  }
  for (const char* kind : {"crash", "shutdown", "drop.dead", "cluster-down"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "no injection run produced a \"" << kind << "\" record";
  }
}

TEST(FaultPlanProperty, RecordedCampaignReplaysByteIdentically) {
  for (const auto& system : AllSystems()) {
    ctcore::TraceStore recorded;
    DriverOptions record;
    record.injection_mode = ctcore::InjectionMode::kNetworkFault;
    record.jobs = 1;
    record.record_traces = &recorded;
    SystemReport original = CrashTunerDriver().Run(*system, record);
    ASSERT_GT(recorded.size(), 0u) << system->name();

    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.jobs = 4;
    replay.replay_traces = &recorded;
    SystemReport replayed = CrashTunerDriver().Run(*system, replay);

    EXPECT_EQ(Serialize(original), Serialize(replayed))
        << system->name() << ": replayed report differs from the recording";
    EXPECT_EQ(original.trace_hash, replayed.trace_hash);

    // The guided campaign must reproduce the system's declared race.
    bool found_race = false;
    for (const auto& bug : replayed.bugs) {
      found_race = found_race || bug.scenario == "message-race";
    }
    EXPECT_TRUE(found_race) << system->name()
                            << ": network-fault campaign found no message-race bug";
  }
}

TEST(FaultPlanProperty, TruncatedOrCorruptedTraceFailsLoudly) {
  ctzk::ZkSystem system;
  ctcore::TraceStore recorded;
  DriverOptions record;
  record.injection_mode = ctcore::InjectionMode::kNetworkFault;
  record.record_traces = &recorded;
  CrashTunerDriver().Run(system, record);
  ASSERT_GT(recorded.size(), 0u);

  // Truncation: the replay runs past the end of the recording.
  {
    ctcore::TraceStore truncated;
    for (const auto& [slot, trace] : recorded.traces()) {
      ctsim::Trace copy = trace;
      copy.Truncate(copy.size() / 2);
      truncated.Put(slot, copy);
    }
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &truncated;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }

  // Corruption: the first event's detail no longer matches.
  {
    ctcore::TraceStore corrupted;
    for (const auto& [slot, trace] : recorded.traces()) {
      ctsim::Trace copy = trace;
      if (!copy.empty()) {
        copy.mutable_events()->front().detail += "-corrupted";
      }
      corrupted.Put(slot, copy);
    }
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &corrupted;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }

  // A missing slot is as loud as a mismatching one.
  {
    ctcore::TraceStore empty;
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &empty;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }
}

}  // namespace
