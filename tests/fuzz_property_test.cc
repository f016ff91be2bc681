// Property tests for the workload-fuzzing phase (src/fuzz/fuzz_phase.h).
//
// Determinism: the fuzz phase is part of the campaign's reproducibility
// contract, so the same ⟨seed, budget⟩ must yield an equal corpus, coverage
// set and bug ids and a byte-identical SystemReport at jobs=1 and jobs=4 on
// all five systems.
//
// Independence: every run is its own draw, so what runs execute does not
// depend on the coverage the phase starts from.
//
// Triage: the known bugs the fuzz runs expose at the default seed are pinned
// per system.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/fuzz/fuzz_phase.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::SystemReport;
using ctfuzz::FuzzPhaseOptions;
using ctfuzz::FuzzResult;

// Enough for every system to reach at least one pair beyond the fixed script
// (HDFS is the straggler: its replay-divergence pair needs a kill landing in
// a narrow editlog window).
constexpr int kBudget = 48;

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

std::string Serialize(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

// Full pipeline + fuzz phase at the given jobs level.
FuzzResult PipelineWithFuzz(const ctcore::SystemUnderTest& system, int jobs,
                            SystemReport* report) {
  DriverOptions options;
  options.jobs = jobs;
  *report = CrashTunerDriver().Run(system, options);
  FuzzPhaseOptions fuzz;
  fuzz.runs = kBudget;
  fuzz.jobs = jobs;
  return ctfuzz::RunFuzzPhase(system, report, fuzz);
}

TEST(FuzzProperty, SameSeedIsByteIdenticalAcrossJobsLevels) {
  for (const auto& system : AllSystems()) {
    SystemReport serial_report, parallel_report;
    FuzzResult serial = PipelineWithFuzz(*system, /*jobs=*/1, &serial_report);
    FuzzResult parallel = PipelineWithFuzz(*system, /*jobs=*/4, &parallel_report);

    EXPECT_EQ(serial.corpus, parallel.corpus) << system->name();
    EXPECT_EQ(serial.coverage, parallel.coverage) << system->name();
    EXPECT_EQ(serial.new_keys, parallel.new_keys) << system->name();
    EXPECT_EQ(serial.trace_hash, parallel.trace_hash) << system->name();
    EXPECT_EQ(serial.runs, parallel.runs) << system->name();
    EXPECT_EQ(serial.new_coverage_runs, parallel.new_coverage_runs) << system->name();
    EXPECT_EQ(serial.bug_runs, parallel.bug_runs) << system->name();
    EXPECT_EQ(serial.bug_ids, parallel.bug_ids) << system->name();
    EXPECT_EQ(Serialize(serial_report), Serialize(parallel_report))
        << system->name() << ": fuzzed report differs between jobs=1 and jobs=4";
  }
}

// A run draws its workload from its own index alone, so starting from an
// empty coverage set (every early run then reaches "new" pairs and enters
// the corpus) must execute exactly the same runs as starting from the fixed
// script's pairs.
TEST(FuzzProperty, RunsDoNotDependOnCoverage) {
  for (const auto& system : AllSystems()) {
    SystemReport report = CrashTunerDriver().Run(*system);
    SystemReport uncovered = report;
    uncovered.profile.dynamic_access_points.clear();
    FuzzPhaseOptions fuzz;
    fuzz.runs = kBudget;
    fuzz.jobs = 4;
    const FuzzResult from_script = ctfuzz::RunFuzzPhase(*system, &report, fuzz);
    const FuzzResult from_nothing = ctfuzz::RunFuzzPhase(*system, &uncovered, fuzz);
    EXPECT_EQ(from_script.trace_hash, from_nothing.trace_hash) << system->name();
    EXPECT_EQ(from_script.runs, from_nothing.runs) << system->name();
    EXPECT_EQ(from_script.bug_ids, from_nothing.bug_ids) << system->name();
    EXPECT_GT(from_nothing.corpus.size(), from_script.corpus.size()) << system->name();
  }
}

// The known bugs TriageBugs matches among the fuzz runs' bug verdicts at the
// default seed and a 48-run budget. Fuzz runs have no crash-point location,
// so only known bugs are named.
TEST(FuzzProperty, TriagedBugIdsArePinned) {
  const std::vector<std::vector<std::string>> expected = {
      {"YARN-8649", "YARN-9165", "YARN-9301"},
      {"HDFS-15113"},
      {"HBASE-21740", "HBASE-22017", "HBASE-22050"},
      {},
      {},
  };
  const auto systems = AllSystems();
  ASSERT_EQ(systems.size(), expected.size());
  for (size_t i = 0; i < systems.size(); ++i) {
    SystemReport report;
    const FuzzResult result = PipelineWithFuzz(*systems[i], /*jobs=*/4, &report);
    EXPECT_EQ(result.bug_ids, expected[i]) << systems[i]->name();
    EXPECT_EQ(report.fuzz.bug_ids, expected[i]) << systems[i]->name();
  }
}

}  // namespace
