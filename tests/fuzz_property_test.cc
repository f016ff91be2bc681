// Property tests for the workload-fuzzing phase (src/fuzz/fuzz_phase.h).
//
// Determinism: the fuzz phase is part of the campaign's reproducibility
// contract, so the same ⟨seed, budget⟩ must yield a byte-identical corpus,
// coverage set, bug ids and SystemReport at jobs=1 and jobs=4 on all five
// systems.
//
// Independence: every run is its own draw, so what runs execute does not
// depend on the coverage the phase starts from.
//
// Triage: the known bugs the fuzz runs expose at the default seed are pinned
// per system.
//
// Replay: a corpus saved to disk reloads bit-exactly, and re-executing each
// entry reproduces the trace hash recorded at admission time.
//
// Fail-loud: a truncated, corrupted, or missing corpus entry makes LoadFrom
// throw an error naming the offending file — a silently different corpus
// would replay different runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/fuzz/corpus.h"
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
using ctfuzz::Corpus;
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
                            SystemReport* report, const std::string& corpus_dir = "") {
  DriverOptions options;
  options.jobs = jobs;
  *report = CrashTunerDriver().Run(system, options);
  FuzzPhaseOptions fuzz;
  fuzz.runs = kBudget;
  fuzz.jobs = jobs;
  fuzz.corpus_dir = corpus_dir;
  return ctfuzz::RunFuzzPhase(system, report, fuzz);
}

void ExpectSameCorpus(const Corpus& a, const Corpus& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    // Byte-identical op sequences, not just equal hashes: the serialized
    // wire form is what disk storage and replay consume.
    EXPECT_EQ(a[i].workload.Serialize(), b[i].workload.Serialize()) << label << " entry " << i;
    EXPECT_EQ(a[i].trace_hash, b[i].trace_hash) << label << " entry " << i;
    EXPECT_EQ(a[i].run_index, b[i].run_index) << label << " entry " << i;
    EXPECT_EQ(a[i].new_keys, b[i].new_keys) << label << " entry " << i;
  }
}

TEST(FuzzProperty, SameSeedIsByteIdenticalAcrossJobsLevels) {
  for (const auto& system : AllSystems()) {
    SystemReport serial_report, parallel_report;
    FuzzResult serial = PipelineWithFuzz(*system, /*jobs=*/1, &serial_report);
    FuzzResult parallel = PipelineWithFuzz(*system, /*jobs=*/4, &parallel_report);

    ExpectSameCorpus(serial.corpus, parallel.corpus, system->name());
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

TEST(FuzzProperty, SavedCorpusReloadsAndReplaysExactly) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "ct_fuzz_corpus_test";
  std::filesystem::remove_all(root);
  for (const auto& system : AllSystems()) {
    std::string stem = system->name();
    for (char& c : stem) {
      if (c == '/' || c == ' ') {
        c = '_';
      }
    }
    const std::string dir = (root / stem).string();
    SystemReport report;
    FuzzResult result = PipelineWithFuzz(*system, /*jobs=*/1, &report, dir);
    ASSERT_FALSE(result.corpus.empty()) << system->name() << ": nothing reached new coverage";

    Corpus loaded = Corpus::LoadFrom(dir);
    ExpectSameCorpus(result.corpus, loaded, system->name() + " (reloaded)");

    // Re-execute every entry from disk: the trace hash recorded at admission
    // must reproduce, proving the corpus alone pins the whole run.
    EXPECT_NO_THROW(ctfuzz::ReplayCorpus(*system, report.crash_points.PointIds(), loaded))
        << system->name();
  }
  std::filesystem::remove_all(root);
}

TEST(FuzzProperty, TruncatedOrCorruptedCorpusFailsLoudly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ct_fuzz_corrupt_test";
  std::filesystem::remove_all(dir);
  ctzk::ZkSystem system;
  SystemReport report;
  FuzzResult result = PipelineWithFuzz(system, /*jobs=*/1, &report, dir.string());
  ASSERT_FALSE(result.corpus.empty());

  // Baseline: the untouched corpus loads.
  ASSERT_NO_THROW(Corpus::LoadFrom(dir.string()));

  const std::filesystem::path entry = dir / "entry-0000.txt";
  ASSERT_TRUE(std::filesystem::exists(entry));
  std::string original;
  {
    std::ifstream in(entry);
    original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // Truncation: drop the second half of the entry (checksum line included).
  {
    std::ofstream out(entry, std::ios::trunc);
    out << original.substr(0, original.size() / 2);
  }
  EXPECT_THROW(Corpus::LoadFrom(dir.string()), std::runtime_error);

  // Corruption: full length, one op byte flipped — the checksum must catch it.
  {
    std::string corrupted = original;
    const auto pos = corrupted.find("op ");
    ASSERT_NE(pos, std::string::npos);
    corrupted[pos + 3] = corrupted[pos + 3] == '1' ? '2' : '1';
    std::ofstream out(entry, std::ios::trunc);
    out << corrupted;
  }
  EXPECT_THROW(Corpus::LoadFrom(dir.string()), std::runtime_error);

  // A manifest-listed entry that is gone entirely is as loud.
  {
    std::ofstream out(entry, std::ios::trunc);
    out << original;  // restore first, then remove the file
  }
  std::filesystem::remove(entry);
  EXPECT_THROW(Corpus::LoadFrom(dir.string()), std::runtime_error);

  std::filesystem::remove_all(dir);
}

}  // namespace
