// Differential suite: the static pipeline against the profiled oracle.
//
// Reproduction pipelines silently drift from the paper's behaviour without
// differential ground truth, so every system is pinned both ways:
//   - call strings: the static-only enumeration (with per-call-string
//     feasibility pruning on) must contain every profiler-observed string —
//     100% recall, pruning may only remove strings the workload never shows.
//     A multi-crash pair is statically enumerable iff both its points are
//     static points, so this also gives every profiled pair;
//   - the static-only pipeline must run zero instrumented (profiling)
//     workloads while doing so.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/core/crashtuner.h"
#include "src/core/multi_crash.h"
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

struct Differential {
  SystemReport profiled;
  SystemReport static_only;
};

Differential RunBoth(const ctcore::SystemUnderTest& system) {
  CrashTunerDriver driver;
  Differential diff;
  diff.profiled = driver.Run(system);
  DriverOptions options;
  options.context_mode = ContextMode::kStaticOnly;
  diff.static_only = driver.Run(system, options);
  return diff;
}

void ExpectDifferentialInvariants(const ctcore::SystemUnderTest& system) {
  SCOPED_TRACE(system.name());
  Differential diff = RunBoth(system);

  // Zero profiling workloads in static-only mode.
  EXPECT_EQ(diff.static_only.profile.instrumented_runs, 0);
  EXPECT_GT(diff.profiled.profile.instrumented_runs, 0);

  // Call-string recall: static-only ⊇ profiled, with pruning on.
  const auto& static_points = diff.static_only.profile.dynamic_access_points;
  for (const auto& observed : diff.profiled.profile.dynamic_access_points) {
    EXPECT_EQ(static_points.count(observed), 1u)
        << "profiled point p" << observed.point_id << " key=[" << observed.stack_key
        << "] pruned or never enumerated";
  }

  // Per-call-string pruning never removes a profiler-observed string:
  // enumerate pruned and unpruned directly and check the removed strings
  // against the observed set.
  ctanalysis::CallGraph graph(system.model());
  ctanalysis::ContextEnumeration enumeration(&graph);
  const int depth = ctrt::AccessTracer::kMaxDepth;
  ctanalysis::StaticContextResult unpruned = enumeration.EnumerateAll(depth);
  ctanalysis::StaticContextResult pruned =
      enumeration.EnumerateAll(depth, /*prune_infeasible=*/true);
  for (const auto& observed : diff.profiled.profile.dynamic_access_points) {
    if (unpruned.Contains(observed.point_id, observed.stack_key)) {
      EXPECT_TRUE(pruned.Contains(observed.point_id, observed.stack_key))
          << "pruning removed observed string p" << observed.point_id << " ["
          << observed.stack_key << "]";
    }
  }
  EXPECT_GE(unpruned.TotalContexts(), pruned.TotalContexts());
  EXPECT_EQ(unpruned.TotalContexts() - pruned.TotalContexts(), pruned.pruned_call_strings);
}

TEST(StaticDifferential, Yarn) { ExpectDifferentialInvariants(ctyarn::YarnSystem()); }

TEST(StaticDifferential, Hdfs) { ExpectDifferentialInvariants(cthdfs::HdfsSystem()); }

TEST(StaticDifferential, HBase) { ExpectDifferentialInvariants(cthbase::HBaseSystem()); }

TEST(StaticDifferential, ZooKeeper) { ExpectDifferentialInvariants(ctzk::ZkSystem()); }

TEST(StaticDifferential, Cassandra) { ExpectDifferentialInvariants(ctcass::CassSystem()); }

// The static pair candidates are exactly what FaultInjectionTester::TestPairs
// walks: the shared enumerator keeps the profiled and static campaigns on
// one deterministic order, and the capped list is a prefix of the uncapped.
TEST(StaticDifferential, PairEnumeratorIsSharedAndPrefixStable) {
  DriverOptions options;
  options.context_mode = ContextMode::kStaticOnly;
  SystemReport report = CrashTunerDriver().Run(ctzk::ZkSystem(), options);
  const auto& points = report.profile.dynamic_access_points;
  auto uncapped = ctcore::EnumerateCrashPairs(points, -1);
  const long long n = static_cast<long long>(points.size());
  EXPECT_EQ(static_cast<long long>(uncapped.size()), n * (n - 1) / 2);
  // Each unordered pair exactly once, in its (lower, higher) point order.
  std::set<ctcore::CrashPairCandidate> distinct(uncapped.begin(), uncapped.end());
  EXPECT_EQ(distinct.size(), uncapped.size());
  for (const auto& pair : uncapped) {
    EXPECT_TRUE(pair.first < pair.second);
  }
  auto capped = ctcore::EnumerateCrashPairs(points, 5);
  ASSERT_LE(capped.size(), 5u);
  for (size_t i = 0; i < capped.size(); ++i) {
    EXPECT_TRUE(capped[i] == uncapped[i]) << "cap changed the walk order at " << i;
  }
  EXPECT_TRUE(ctcore::EnumerateCrashPairs(points, 0).empty());
}

}  // namespace
