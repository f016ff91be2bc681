// Property tests for deterministic network-fault injection.
//
// Run-level: 25 random partition plans (a partition window or none) are
// applied to each of the five systems; the same plan must produce the same
// event trace hash on a second run at a different seed, because nothing in a
// run draws a random number. The first run's recorder only hashes and the
// second keeps its events, so the sweep also checks that hashing while
// recording gives the kept trace's hash, over every kind of record the plans
// produce.
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

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

// A random plan drawn from one Rng stream. The partition victim is kept as
// an index — node ids differ per system — and materialized against the run's
// node list.
struct PlannedFaults {
  bool has_partition = false;
  uint64_t victim_index = 0;
  uint64_t partition_start = 0;
  uint64_t partition_len = 0;
};

PlannedFaults DrawPlan(ctcommon::Rng& rng) {
  PlannedFaults drawn;
  drawn.has_partition = rng.Chance(0.5);
  if (drawn.has_partition) {
    drawn.partition_start = rng.Uniform(0, 2000);
    drawn.partition_len = rng.Uniform(200, 3000);
    drawn.victim_index = rng.Uniform(0, 1 << 16);  // reduced per run
  }
  return drawn;
}

// One run of `system` under `drawn`, traced into `recorder`.
void TracedRun(const ctcore::SystemUnderTest& system, const PlannedFaults& drawn, uint64_t seed,
               ctsim::TraceRecorder* recorder) {
  auto run = system.NewRun(system.default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();
  cluster.set_trace_recorder(recorder);
  if (drawn.has_partition) {
    std::vector<std::string> eligible;
    for (ctsim::Node* node : cluster.nodes()) {
      if (!node->workload_driver()) {
        eligible.push_back(node->id());
      }
    }
    cluster.Partition({eligible[drawn.victim_index % eligible.size()]}, drawn.partition_start,
                      drawn.partition_start + drawn.partition_len);
  }
  ctcore::Executor::Execute(*run, /*baseline=*/nullptr);
}

TEST(FaultPlanProperty, SamePlanYieldsTheSameTraceHashAtAnySeed) {
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
      TracedRun(*system, plans[p], seed * 7919 + 1, &keeping);
      const ctsim::Trace& trace = keeping.trace();
      EXPECT_EQ(hash_only.hash(), keeping.hash())
          << system->name() << " plan#" << p << " diverged on the same plan at another seed";
      EXPECT_EQ(hash_only.size(), trace.size()) << system->name() << " plan#" << p;
      EXPECT_EQ(hash_only.hash(), trace.Hash())
          << system->name() << " plan#" << p << ": streamed hash differs from the kept trace's";
      for (const ctsim::TraceEvent& event : trace.events()) {
        kinds.insert(event.kind);
      }
    }
  }
  // The sweep reaches every record kind a partition plan produces. Nothing
  // crashes in these runs; the crash-mode campaign below covers those kinds.
  for (const char* kind : {"deliver", "drop.partition", "timer", "start", "partition"}) {
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
