// Golden-report regression suite.
//
// A fixed-seed SystemReport for each of the five systems is pinned as a
// checked-in JSON snapshot for both context modes, and each mode is
// additionally run at jobs=1 and jobs=4: the two thread counts must
// serialize byte-identically (the campaign's determinism guarantee), and the
// jobs=1 serialization must match the snapshot field-for-field. Any
// behavioural drift in the pipeline — analysis, enumeration, injection,
// triage, trace hashing — shows up as a diff here before it can silently
// change the reproduction's numbers.
//
// Regenerate after an intentional change with:
//   CRASHTUNER_UPDATE_GOLDEN=1 ./build/tests/golden_report_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::ContextMode;
using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::SystemReport;

#ifndef CRASHTUNER_SOURCE_DIR
#error "tests/CMakeLists.txt must define CRASHTUNER_SOURCE_DIR"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(CRASHTUNER_SOURCE_DIR) + "/tests/golden/" + name + ".json";
}

// Serializes with the wall-clock fields zeroed — the only nondeterministic
// members by construction; everything else must be stable across runs,
// thread counts, and machines (the simulation runs in virtual time).
std::string Serialize(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

// Splits a serialized report at top-level commas for a field-by-field diff:
// on mismatch the failing field is named instead of two whole-line blobs.
std::vector<std::string> Fields(const std::string& json) {
  std::vector<std::string> fields;
  int nesting = 0;
  std::string current;
  for (char c : json) {
    if (c == '{' || c == '[') {
      ++nesting;
    } else if (c == '}' || c == ']') {
      --nesting;
    }
    if (c == ',' && nesting == 1) {
      fields.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) {
    fields.push_back(current);
  }
  return fields;
}

void CheckAgainstGolden(const std::string& name, const std::string& serialized) {
  const std::string path = GoldenPath(name);
  if (std::getenv("CRASHTUNER_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with CRASHTUNER_UPDATE_GOLDEN=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  if (golden == serialized) {
    return;
  }
  std::vector<std::string> want = Fields(golden);
  std::vector<std::string> got = Fields(serialized);
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << name << ": field " << i << " drifted";
  }
  EXPECT_EQ(got.size(), want.size()) << name << ": field count drifted";
  EXPECT_EQ(serialized, golden) << name;
}

SystemReport RunSystem(const ctcore::SystemUnderTest& system, ContextMode mode, int jobs) {
  DriverOptions options;
  options.context_mode = mode;
  options.jobs = jobs;
  return CrashTunerDriver().Run(system, options);
}

void CheckSystem(const ctcore::SystemUnderTest& system, ContextMode mode,
                 const std::string& golden_name) {
  std::string seq = Serialize(RunSystem(system, mode, 1));
  std::string par = Serialize(RunSystem(system, mode, 4));
  EXPECT_EQ(seq, par) << golden_name << " differs between jobs=1 and jobs=4";
  CheckAgainstGolden(golden_name, seq);
}

TEST(GoldenReport, YarnProfiled) {
  CheckSystem(ctyarn::YarnSystem(), ContextMode::kProfiled, "yarn_profiled");
}
TEST(GoldenReport, YarnStaticOnly) {
  CheckSystem(ctyarn::YarnSystem(), ContextMode::kStaticOnly, "yarn_static_only");
}
TEST(GoldenReport, HdfsProfiled) {
  CheckSystem(cthdfs::HdfsSystem(), ContextMode::kProfiled, "hdfs_profiled");
}
TEST(GoldenReport, HdfsStaticOnly) {
  CheckSystem(cthdfs::HdfsSystem(), ContextMode::kStaticOnly, "hdfs_static_only");
}
TEST(GoldenReport, HBaseProfiled) {
  CheckSystem(cthbase::HBaseSystem(), ContextMode::kProfiled, "hbase_profiled");
}
TEST(GoldenReport, HBaseStaticOnly) {
  CheckSystem(cthbase::HBaseSystem(), ContextMode::kStaticOnly, "hbase_static_only");
}
TEST(GoldenReport, ZooKeeperProfiled) {
  CheckSystem(ctzk::ZkSystem(), ContextMode::kProfiled, "zookeeper_profiled");
}
TEST(GoldenReport, ZooKeeperStaticOnly) {
  CheckSystem(ctzk::ZkSystem(), ContextMode::kStaticOnly, "zookeeper_static_only");
}
TEST(GoldenReport, CassandraProfiled) {
  CheckSystem(ctcass::CassSystem(), ContextMode::kProfiled, "cassandra_profiled");
}
TEST(GoldenReport, CassandraStaticOnly) {
  CheckSystem(ctcass::CassSystem(), ContextMode::kStaticOnly, "cassandra_static_only");
}

// Scale 8 pins the many-peer paths: 24 ZooKeeper peers elect and track a
// leader, and 24 Cassandra nodes grow their gossip rings. At scale 1 there
// are three of each, too few to tell an incremental bookkeeping bug apart
// from a full rescan.
TEST(GoldenReport, ZooKeeperScale8) {
  ctzk::ZkSystem system;
  system.set_scale(8);
  CheckSystem(system, ContextMode::kProfiled, "zookeeper_scale8");
}
TEST(GoldenReport, CassandraScale8) {
  ctcass::CassSystem system;
  system.set_scale(8);
  CheckSystem(system, ContextMode::kProfiled, "cassandra_scale8");
}

}  // namespace
