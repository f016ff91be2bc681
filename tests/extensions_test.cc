// Tests for the extensions layered on the paper's pipeline: the driver
// options (pre-read wait window, manual annotations), the multi-crash
// pair runs, the report writers, and the DOT export.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/analysis/log_analysis.h"
#include "src/core/crashtuner.h"
#include "src/core/multi_crash.h"
#include "src/core/report_writer.h"
#include "src/obs/json.h"
#include "src/systems/yarn/yarn_system.h"

namespace ctcore {
namespace {

const SystemReport& CachedReport() {
  static const SystemReport* report = [] {
    ctyarn::YarnSystem yarn;
    return new SystemReport(CrashTunerDriver().Run(yarn));
  }();
  return *report;
}

TEST(WaitWindowOption, ZeroWaitLosesPreReadBugs) {
  ctyarn::YarnSystem yarn;
  DriverOptions options;
  options.pre_read_wait_ms = 0;
  SystemReport report = CrashTunerDriver().Run(yarn, options);
  // Without the wait, recovery never races the interrupted read: the
  // wait-dependent pre-read bugs disappear. (YARN-9201 can still surface as
  // collateral damage — the dead node's *other* queued transitions hit the
  // KILLED state later in the run.)
  std::set<std::string> ids;
  for (const auto& bug : report.bugs) {
    ids.insert(bug.bug_id);
  }
  for (const char* lost : {"YARN-9238", "YARN-9164", "YARN-9194", "YARN-9248", "YARN-8649"}) {
    EXPECT_FALSE(ids.count(lost)) << lost << " needs the wait window";
  }
  EXPECT_LT(report.bugs.size(), CachedReport().bugs.size());
}

TEST(AnnotationOption, ExtraSeedsExpandMetaInfo) {
  ctyarn::YarnSystem yarn;
  DriverOptions options;
  // SchedulerNode values never appear in logs (the YARN-4502-class miss);
  // annotating the type pulls it — and its collections — into the set.
  options.annotated_seed_types.insert("yarn.server.scheduler.SchedulerNode");
  SystemReport annotated = CrashTunerDriver().Run(yarn, options);
  EXPECT_FALSE(CachedReport().metainfo.IsMetaInfoType("yarn.server.scheduler.SchedulerNode"));
  EXPECT_TRUE(annotated.metainfo.IsMetaInfoType("yarn.server.scheduler.SchedulerNode"));
  EXPECT_GE(annotated.metainfo_types, CachedReport().metainfo_types + 1);
}

TEST(MultiCrash, PairRunsChainTwoInjections) {
  ctyarn::YarnSystem yarn;
  const SystemReport& single = CachedReport();
  FaultInjectionTester tester(&yarn, &single.crash_points, single.filter,
                              single.profile.baseline, single.profile.normal_duration_ms);

  // Pick two pre-read points that individually expose YARN-9164 and
  // YARN-8650; chained, both faults must land.
  ctrt::DynamicPoint first;
  ctrt::DynamicPoint second;
  for (const auto& injection : single.injections) {
    if (injection.location.find("completeContainer") != std::string::npos &&
        injection.injected) {
      first = injection.point;
    }
    if (injection.location.find("ContainerImpl.handle:120") != std::string::npos) {
      second = injection.point;
    }
  }
  ASSERT_GE(first.point_id, 0);
  ASSERT_GE(second.point_id, 0);
  PairInjectionResult result = tester.TestPair(second, first);
  EXPECT_TRUE(result.first_injected);
  // The second point may or may not execute after the first fault; when it
  // does, a second node dies.
  if (result.second_injected) {
    EXPECT_NE(result.first_target, result.second_target);
  }
}

TEST(MultiCrash, ReportSeparatesMultiOnlyFailures) {
  ctyarn::YarnSystem yarn;
  const SystemReport& single = CachedReport();
  FaultInjectionTester tester(&yarn, &single.crash_points, single.filter,
                              single.profile.baseline, single.profile.normal_duration_ms);
  MultiCrashReport report = tester.TestPairs(single.profile, single.injections, 6);
  EXPECT_EQ(report.pairs_tested, 6);
  EXPECT_LE(report.multi_only.size(), report.failing.size());
  EXPECT_GT(report.virtual_hours, 0.0);
}

// bench_multicrash's default campaign: the first 60 pairs of the profiled
// YARN point set.
TEST(MultiCrash, BenchCampaignCountsArePinned) {
  ctyarn::YarnSystem yarn;
  const SystemReport& single = CachedReport();
  FaultInjectionTester tester(&yarn, &single.crash_points, single.filter,
                              single.profile.baseline, single.profile.normal_duration_ms);
  MultiCrashReport report = tester.TestPairs(single.profile, single.injections, 60);
  EXPECT_EQ(report.pairs_tested, 60);
  EXPECT_EQ(report.failing.size(), 54u);
  EXPECT_EQ(report.multi_only.size(), 9u);
}

// Every field of a multi-crash report row, flattened for exact comparison.
std::string RowKey(const PairInjectionResult& row) {
  std::string key = std::to_string(row.first.point_id) + "|" + row.first.stack_key + "|" +
                    std::to_string(row.second.point_id) + "|" + row.second.stack_key + "|" +
                    row.first_location + "|" + row.second_location + "|" +
                    (row.first_injected ? "1" : "0") + (row.second_injected ? "1" : "0") + "|" +
                    row.first_target + "|" + row.second_target + "|" +
                    row.outcome.PrimarySymptom() + "|" +
                    std::to_string(row.outcome.virtual_duration_ms);
  for (const auto& exception : row.outcome.uncommon_exceptions) {
    key += "|" + exception;
  }
  return key;
}

std::vector<std::string> RowKeys(const std::vector<PairInjectionResult>& rows) {
  std::vector<std::string> keys;
  for (const auto& row : rows) {
    keys.push_back(RowKey(row));
  }
  return keys;
}

// A pair run is fixed by its two points alone, and results are aggregated in
// pair order: a capped campaign reproduces the matching prefix of a longer
// one row for row, and no report field depends on the thread count. What
// these rows pin down is the pair walk and the aggregation order.
TEST(MultiCrash, CappedCampaignIsPrefixAndJobsInvariant) {
  ctyarn::YarnSystem yarn;
  const SystemReport& single = CachedReport();
  FaultInjectionTester tester(&yarn, &single.crash_points, single.filter,
                              single.profile.baseline, single.profile.normal_duration_ms);

  MultiCrashReport six = tester.TestPairs(single.profile, single.injections, 6, /*jobs=*/1);
  MultiCrashReport three = tester.TestPairs(single.profile, single.injections, 3, /*jobs=*/1);
  EXPECT_EQ(three.pairs_tested, 3);
  const std::vector<CrashPairCandidate> prefix =
      EnumerateCrashPairs(single.profile.dynamic_access_points, 3);
  std::vector<PairInjectionResult> six_in_prefix;
  for (const auto& row : six.failing) {
    for (const auto& pair : prefix) {
      if (row.first == pair.first && row.second == pair.second) {
        six_in_prefix.push_back(row);
      }
    }
  }
  ASSERT_FALSE(three.failing.empty()) << "the prefix property needs a failing pair to compare";
  EXPECT_EQ(RowKeys(three.failing), RowKeys(six_in_prefix));

  ASSERT_FALSE(six.multi_only.empty()) << "the jobs comparison needs a multi-only row";
  MultiCrashReport parallel = tester.TestPairs(single.profile, single.injections, 6, /*jobs=*/4);
  EXPECT_EQ(RowKeys(parallel.failing), RowKeys(six.failing));
  EXPECT_EQ(RowKeys(parallel.multi_only), RowKeys(six.multi_only));
  EXPECT_EQ(parallel.virtual_hours, six.virtual_hours);
}

TEST(ReportWriter, MarkdownContainsBugsAndCounts) {
  std::string markdown = ReportToMarkdown(CachedReport());
  EXPECT_NE(markdown.find("# CrashTuner report — Hadoop2/Yarn"), std::string::npos);
  EXPECT_NE(markdown.find("YARN-9164"), std::string::npos);
  EXPECT_NE(markdown.find("Static crash points"), std::string::npos);
}

TEST(ReportWriter, JsonIsWellFormedEnough) {
  std::string json = ReportToJson(CachedReport());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"system\":\"Hadoop2/Yarn\""), std::string::npos);
  EXPECT_NE(json.find("\"bugs\":["), std::string::npos);
  // Balanced braces (no quotes inside our ids, so a plain count suffices).
  int depth = 0;
  for (char c : json) {
    depth += c == '{' ? 1 : 0;
    depth -= c == '}' ? 1 : 0;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// Every JSON string the repository writes goes through ctobs::JsonWriter.
std::string JsonString(const std::string& text) {
  return ctobs::JsonWriter().String(text).str();
}

TEST(ReportWriter, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonString("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonString("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(JsonString("a\rb"), "\"a\\u000db\"");
  EXPECT_EQ(JsonString(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(DotExport, RendersNodesAndEdges) {
  ctanalysis::MetaInfoGraph graph;
  graph.node_values.insert("node1:42349");
  graph.value_to_node["container_1"] = "node1:42349";
  std::string dot = ctanalysis::MetaInfoGraphToDot(graph);
  EXPECT_NE(dot.find("digraph metainfo"), std::string::npos);
  EXPECT_NE(dot.find("\"node1:42349\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"container_1\" -> \"node1:42349\""), std::string::npos);
}

TEST(StackDepthOption, DepthOneMergesContexts) {
  ctrt::AccessTracer::SetDefaultStackDepth(1);
  ctyarn::YarnSystem yarn;
  SystemReport shallow = CrashTunerDriver().Run(yarn);
  ctrt::AccessTracer::SetDefaultStackDepth(ctrt::AccessTracer::kMaxDepth);
  // Depth 1 cannot distinguish the two completeContainer contexts, so the
  // dynamic point count drops.
  EXPECT_LT(shallow.dynamic_crash_points, CachedReport().dynamic_crash_points);
}

}  // namespace
}  // namespace ctcore
