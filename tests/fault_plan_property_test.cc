// Property tests for deterministic network-fault injection.
//
// Run-level: 25 random partition plans (a partition window or none) are
// applied to each of the five systems; the same plan must produce the same
// event trace hash on a second run at a different seed, because nothing in a
// run draws a random number. The sweep must also cut traffic, so the hashes
// cover partition drops.
//
// Driver-level: a network-fault campaign at jobs=1 and at jobs=4 yields a
// byte-identical SystemReport, trace hash included, and the campaign reports
// the bug id of each network-fault window the system's model declares. The
// one partition a campaign run installs is its landed injection's, which is
// what the report's dossiers record as their fault plan.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/report_writer.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
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

// One run of `system` under `drawn`, traced into `recorder`. Returns the
// messages the partition dropped.
uint64_t TracedRun(const ctcore::SystemUnderTest& system, const PlannedFaults& drawn,
                   uint64_t seed, ctsim::TraceRecorder* recorder) {
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
  return cluster.plan_dropped_messages();
}

TEST(FaultPlanProperty, SamePlanYieldsTheSameTraceHashAtAnySeed) {
  ctcommon::Rng rng(0xfa17);
  std::vector<PlannedFaults> plans;
  for (int i = 0; i < 25; ++i) {
    plans.push_back(DrawPlan(rng));
  }
  uint64_t dropped = 0;
  for (const auto& system : AllSystems()) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const uint64_t seed = 4242 + 31ull * p;
      ctsim::TraceRecorder first;
      dropped += TracedRun(*system, plans[p], seed, &first);
      ctsim::TraceRecorder second;
      TracedRun(*system, plans[p], seed * 7919 + 1, &second);
      EXPECT_EQ(first.hash(), second.hash())
          << system->name() << " plan#" << p << " diverged on the same plan at another seed";
      EXPECT_EQ(first.size(), second.size()) << system->name() << " plan#" << p;
    }
  }
  EXPECT_GT(dropped, 0u) << "no plan cut any traffic";
}

std::string Serialize(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

TEST(FaultPlanProperty, NetworkCampaignIsByteIdenticalAtAnyJobs) {
  for (const auto& system : AllSystems()) {
    DriverOptions options;
    options.injection_mode = ctcore::InjectionMode::kNetworkFault;
    options.jobs = 1;
    ctobs::CampaignObserver observer;
    options.observer = &observer;
    const SystemReport serial = CrashTunerDriver().Run(*system, options);
    ASSERT_FALSE(serial.injections.empty()) << system->name();
    options.jobs = 4;
    options.observer = nullptr;
    const SystemReport parallel = CrashTunerDriver().Run(*system, options);

    EXPECT_EQ(Serialize(serial), Serialize(parallel))
        << system->name() << ": the jobs=4 report differs from the jobs=1 report";
    EXPECT_EQ(serial.trace_hash, parallel.trace_hash);

    // The guided campaign must reproduce each race the system declares.
    ASSERT_FALSE(system->model().network_fault_windows().empty()) << system->name();
    for (const auto& window : system->model().network_fault_windows()) {
      bool found_race = false;
      for (const auto& bug : serial.bugs) {
        found_race = found_race || bug.bug_id == window.bug_id;
      }
      EXPECT_TRUE(found_race) << system->name() << ": network-fault campaign did not report "
                              << window.bug_id;
    }

    // Only a landed injection partitions, once per run: the campaign's
    // partition epochs are its injected runs.
    const ctobs::SystemMetrics observed = observer.Finalize();
    EXPECT_EQ(observed.metrics.counter("partition.epochs"),
              observed.metrics.counter("injection.injected"))
        << system->name();
    const std::vector<ctobs::Dossier> dossiers =
        ctcore::ReportDossiers(*system, serial, options.seed + ctcore::kCampaignSeedOffset);
    EXPECT_FALSE(dossiers.empty()) << system->name();
    for (const ctobs::Dossier& dossier : dossiers) {
      SCOPED_TRACE(system->name() + " slot " + std::to_string(dossier.slot));
      if (dossier.injected_points.empty()) {
        EXPECT_EQ(dossier.fault_plan, "");
        continue;
      }
      EXPECT_EQ(dossier.injected_points[0].mode, "partition");
      EXPECT_EQ(dossier.fault_plan, "partition-epochs=1");
    }
  }
}

}  // namespace
