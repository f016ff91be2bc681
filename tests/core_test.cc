// Tests for the core pipeline: executor verdicts, profiler fixpoint, trigger
// mechanics, triage, the baselines, and the study database.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/profiler.h"
#include "src/core/stash_feed.h"
#include "src/logging/statement.h"
#include "src/sim/cluster.h"
#include "src/study/bug_study.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace ctcore {
namespace {

TEST(RunOutcome, PrimarySymptomPriorities) {
  RunOutcome outcome;
  EXPECT_EQ(outcome.PrimarySymptom(), "ok");
  outcome.timeout_issue = true;
  EXPECT_EQ(outcome.PrimarySymptom(), "timeout");
  outcome.uncommon_exceptions.push_back("X");
  EXPECT_EQ(outcome.PrimarySymptom(), "uncommon exception");
  outcome.failed = true;
  EXPECT_EQ(outcome.PrimarySymptom(), "job failure");
  outcome.hang = true;
  EXPECT_EQ(outcome.PrimarySymptom(), "system hang");
  outcome.cluster_down = true;
  EXPECT_EQ(outcome.PrimarySymptom(), "cluster down");
}

TEST(RunOutcome, IsBugCoversThePaperOracle) {
  RunOutcome outcome;
  EXPECT_FALSE(outcome.IsBug());
  outcome.timeout_issue = true;
  EXPECT_FALSE(outcome.IsBug()) << "timeout issues are reported separately (§4.1.3)";
  outcome.uncommon_exceptions.push_back("X");
  EXPECT_TRUE(outcome.IsBug());
}

TEST(Executor, BaselineWhitelistsCommonExceptions) {
  OracleBaseline baseline;
  baseline.common_exception_types.insert("KnownException");
  ctyarn::YarnSystem yarn;
  auto run = yarn.NewRun(2, 51);
  RunOutcome outcome = Executor::Execute(*run, &baseline);
  EXPECT_TRUE(outcome.uncommon_exceptions.empty());
}

TEST(Profiler, ConvergesWithinThreeIterations) {
  ctyarn::YarnSystem yarn;
  const auto& model = yarn.model();
  std::set<int> all_points;
  for (const auto& point : model.access_points()) {
    if (point.executable) {
      all_points.insert(point.id);
    }
  }
  Profiler profiler;
  ProfileResult result = profiler.Profile(yarn, all_points, {}, 61);
  EXPECT_LE(result.iterations, Profiler::kMaxIterations);
  EXPECT_GE(result.iterations, 2);
  EXPECT_FALSE(result.dynamic_access_points.empty());
  EXPECT_GT(result.normal_duration_ms, 0u);
}

TEST(Profiler, SyntheticPointsNeverBecomeDynamic) {
  ctyarn::YarnSystem yarn;
  const auto& model = yarn.model();
  std::set<int> synthetic;
  for (const auto& point : model.access_points()) {
    if (point.synthetic) {
      synthetic.insert(point.id);
    }
  }
  Profiler profiler;
  ProfileResult result = profiler.Profile(yarn, synthetic, {}, 62);
  EXPECT_TRUE(result.dynamic_access_points.empty());
}

std::vector<std::unique_ptr<SystemUnderTest>> FiveSystems(int scale) {
  std::vector<std::unique_ptr<SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  for (auto& system : systems) {
    system->set_scale(scale);
  }
  return systems;
}

TEST(Profiler, DriverLogRunProfilesWhatADirectProfileDoes) {
  // The driver's log run is profiling iteration 0, recorded on every
  // executable access point and restricted to the crash points afterwards.
  for (int scale : {1, 2}) {
    for (const auto& system : FiveSystems(scale)) {
      SCOPED_TRACE(system->name() + " at scale " + std::to_string(scale));
      DriverOptions options;
      const SystemReport report = CrashTunerDriver().Run(*system, options);
      const ProfileResult direct =
          Profiler().Profile(*system, report.crash_points.PointIds(), {}, options.seed);
      const ProfileResult& merged = report.profile;
      EXPECT_FALSE(merged.dynamic_access_points.empty());
      EXPECT_EQ(merged.dynamic_access_points, direct.dynamic_access_points);
      EXPECT_EQ(merged.dynamic_io_points, direct.dynamic_io_points);
      EXPECT_EQ(merged.baseline.common_exception_types, direct.baseline.common_exception_types);
      EXPECT_EQ(merged.normal_duration_ms, direct.normal_duration_ms);
      EXPECT_EQ(merged.iterations, direct.iterations);
      EXPECT_EQ(merged.instrumented_runs, direct.instrumented_runs);
    }
  }
}

TEST(Profiler, StaticOnlyDriverInstrumentsNoRun) {
  for (const auto& system : FiveSystems(1)) {
    SCOPED_TRACE(system->name());
    DriverOptions options;
    options.context_mode = ContextMode::kStaticOnly;
    const SystemReport report = CrashTunerDriver().Run(*system, options);
    EXPECT_EQ(report.profile.instrumented_runs, 0);
    EXPECT_EQ(report.profile.iterations, 1);
    EXPECT_GT(report.profile.normal_duration_ms, 0u);
  }
}

// Two nodes whose "Assigned {} on {}" lines carry a meta-info value and the
// node it lives on.
struct FeedCluster {
  FeedCluster() {
    n1 = cluster.AddNode<ctsim::Node>("n1:1");
    n2 = cluster.AddNode<ctsim::Node>("n2:1");
    cluster.StartAll();
    assigned = ctlog::StatementRegistry::Instance().Register(ctlog::Level::kInfo,
                                                             "Assigned {} on {}", "Feed.assign");
    filter.hosts = {"n1", "n2"};
    filter.metainfo_args[assigned] = {0, 1};
  }

  ctsim::Cluster cluster;
  ctsim::Node* n1 = nullptr;
  ctsim::Node* n2 = nullptr;
  int assigned = -1;
  ctlog::OnlineFilter filter;
};

TEST(StashFeed, LinesLoggedBeforeTheFeedNeverReachTheStash) {
  FeedCluster run;
  run.n1->log().Log(run.assigned, {"app_1", "n1:1"});
  StashFeed feed(run.cluster, run.filter);
  EXPECT_FALSE(feed.LiveTarget("app_1").has_value());
  run.n1->log().Log(run.assigned, {"app_2", "n1:1"});
  EXPECT_EQ(feed.LiveTarget("app_2"), "n1:1");
}

TEST(StashFeed, ValueLoggedAfterALookupResolvesAtTheNext) {
  // A pair run looks up twice: the second lookup sees what was logged since
  // the first.
  FeedCluster run;
  StashFeed feed(run.cluster, run.filter);
  EXPECT_FALSE(feed.LiveTarget("app_2").has_value());
  run.n2->log().Log(run.assigned, {"app_2", "n2:1"});
  EXPECT_EQ(feed.LiveTarget("app_2"), "n2:1");
  // A target that is down no longer resolves.
  run.cluster.Crash("n2:1");
  EXPECT_FALSE(feed.LiveTarget("app_2").has_value());
}

TEST(StashFeed, LinesFromNodesOutsideTheFeedAreIgnored) {
  FeedCluster run;
  StashFeed feed(run.cluster, run.filter);
  ctlog::Logger outsider(&run.cluster.logs(), "ghost:1", [] { return 0u; });
  outsider.Log(run.assigned, {"app_3", "n1:1"});
  EXPECT_FALSE(feed.LiveTarget("app_3").has_value());
  run.n1->log().Log(run.assigned, {"app_3", "n1:1"});
  EXPECT_EQ(feed.LiveTarget("app_3"), "n1:1");
}

TEST(Triage, UnknownFailuresGetNewPrefix) {
  ctyarn::YarnSystem yarn;
  std::vector<InjectionResult> injections(1);
  injections[0].injected = true;
  injections[0].location = "Nowhere.method:1";
  injections[0].outcome.failed = true;
  auto bugs = TriageBugs(yarn, injections);
  ASSERT_EQ(bugs.size(), 1u);
  EXPECT_EQ(bugs[0].bug_id, "NEW-Nowhere.method:1");
}

TEST(Triage, LocationAndExceptionSelectKnownBug) {
  ctyarn::YarnSystem yarn;
  std::vector<InjectionResult> injections(1);
  injections[0].injected = true;
  injections[0].location = "AbstractYarnScheduler.completeContainer:5";
  injections[0].kind = ctanalysis::CrashPointKind::kPreRead;
  injections[0].outcome.cluster_down = true;
  injections[0].outcome.uncommon_exceptions.push_back(
      "NullPointerException: completeContainer on removed node node1:42349");
  auto bugs = TriageBugs(yarn, injections);
  ASSERT_EQ(bugs.size(), 1u);
  EXPECT_EQ(bugs[0].bug_id, "YARN-9164");
  EXPECT_EQ(bugs[0].priority, "Critical");
}

TEST(Triage, DeduplicatesByIssue) {
  ctyarn::YarnSystem yarn;
  std::vector<InjectionResult> injections(2);
  for (auto& injection : injections) {
    injection.injected = true;
    injection.location = "AbstractYarnScheduler.completeContainer:5";
    injection.outcome.cluster_down = true;
    injection.outcome.uncommon_exceptions.push_back(
        "NullPointerException: completeContainer on removed node nodeX");
  }
  injections[1].point.stack_key = "different-context";
  auto bugs = TriageBugs(yarn, injections);
  ASSERT_EQ(bugs.size(), 1u);
  EXPECT_EQ(bugs[0].exposing_points.size(), 2u);
}

TEST(Triage, BenignInjectionsProduceNoBugs) {
  ctyarn::YarnSystem yarn;
  std::vector<InjectionResult> injections(3);
  for (auto& injection : injections) {
    injection.injected = true;
    injection.location = "X.y:1";
  }
  EXPECT_TRUE(TriageBugs(yarn, injections).empty());
}

// Baseline trials carry no crash-point location: TriageBugs names them only
// after a known bug, and TriageBaselineBugs is the same matcher.
TEST(Triage, LocationlessRunsReportOnlyKnownBugs) {
  ctyarn::YarnSystem yarn;
  std::vector<InjectionResult> runs(3);
  for (auto& run : runs) {
    run.injected = true;
  }
  runs[0].outcome.failed = true;
  runs[0].outcome.uncommon_exceptions.push_back("IllegalStateException: matches no known bug");
  EXPECT_TRUE(TriageBugs(yarn, {runs[0]}).empty());

  runs[1].outcome.failed = true;
  runs[1].outcome.uncommon_exceptions.push_back(
      "InvalidStateTransitionException: Invalid event LAUNCHED at KILLED for container c_1");
  // MR-3858's exception_substr is the symptom label "system hang", so a hang
  // with any uncommon exception the earlier rows miss triages to it.
  runs[2].outcome.hang = true;
  runs[2].outcome.uncommon_exceptions.push_back("IllegalStateException: matches no known bug");
  std::vector<DetectedBug> bugs = TriageBugs(yarn, runs);
  ASSERT_EQ(bugs.size(), 2u);
  EXPECT_EQ(bugs[0].bug_id, "MR-3858");
  EXPECT_EQ(bugs[1].bug_id, "YARN-9201");
  EXPECT_EQ(bugs[1].location, "");
  EXPECT_EQ(bugs[1].exposing_points.size(), 1u);

  std::vector<BaselineTrial> trials(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    trials[i].outcome = runs[i].outcome;
  }
  std::vector<DetectedBug> baseline_bugs = TriageBaselineBugs(yarn, trials);
  ASSERT_EQ(baseline_bugs.size(), bugs.size());
  for (size_t i = 0; i < bugs.size(); ++i) {
    EXPECT_EQ(baseline_bugs[i].bug_id, bugs[i].bug_id);
  }
}

TEST(RandomBaseline, RunsRequestedTrials) {
  ctyarn::YarnSystem yarn;
  RandomCrashInjector injector;
  BaselineReport report = injector.Run(yarn, 20, 71);
  EXPECT_EQ(report.trials, 20);
  EXPECT_GT(report.virtual_hours, 0.0);
  // 20 random trials in a ~28 s run rarely hit a window; bugs ⊆ failing.
  EXPECT_LE(report.bugs.size(), report.failing_trials.size());
}

TEST(IoBaseline, CountsIoSurface) {
  ctyarn::YarnSystem yarn;
  IoFaultInjector injector;
  BaselineReport report = injector.Run(yarn, 73);
  EXPECT_GT(report.io_classes, 0);
  EXPECT_GT(report.io_methods, 0);
  EXPECT_GT(report.static_io_points, 0);
  EXPECT_GT(report.dynamic_io_points, 0);
  // Two trials per dynamic point: before and after.
  EXPECT_EQ(report.trials, report.dynamic_io_points * 2);
}

TEST(IoBaseline, FindsOnlyYarn9201OnTrunk) {
  // §4.2.2: IO fault injection triggers YARN-9201 and nothing else, because
  // the real crash points are far from IO points and IO faults are handled.
  ctyarn::YarnSystem yarn;
  IoFaultInjector injector;
  BaselineReport report = injector.Run(yarn, 74);
  for (const auto& bug : report.bugs) {
    EXPECT_EQ(bug.bug_id, "YARN-9201") << bug.bug_id;
  }
  ASSERT_EQ(report.bugs.size(), 1u);
}

// Index of the first failing trial that triages to a message-race bug, as
// bench_table7_random_injection reports it; -1 when none does.
int FirstRaceTrial(const SystemUnderTest& system, const BaselineReport& report) {
  for (const auto& trial : report.failing_trials) {
    for (const auto& bug : TriageBaselineBugs(system, {trial})) {
      if (bug.scenario == "message-race") {
        return trial.trial_index;
      }
    }
  }
  return -1;
}

std::vector<std::string> BugIds(const BaselineReport& report) {
  std::vector<std::string> ids;
  for (const auto& bug : report.bugs) {
    ids.push_back(bug.bug_id);
  }
  return ids;
}

// bench_table7_random_injection 40 (seed 20190427): failing runs, bug ids and
// first race trials per system, in the bench's row order.
TEST(RandomBaselines, Table7RowsAtFortyTrialsArePinned) {
  struct Row {
    std::unique_ptr<SystemUnderTest> system;
    size_t crash_failing;
    std::vector<std::string> crash_bugs;
    size_t partition_failing;
    int first_race_trial;
  };
  std::vector<Row> rows;
  rows.push_back({std::make_unique<ctyarn::YarnSystem>(), 7, {"MR-7178", "YARN-9201"}, 15, 10});
  rows.push_back({std::make_unique<cthdfs::HdfsSystem>(), 0, {}, 3, 3});
  rows.push_back(
      {std::make_unique<cthbase::HBaseSystem>(), 18, {"HBASE-21740", "HBASE-22050"}, 13, -1});
  rows.push_back({std::make_unique<ctzk::ZkSystem>(), 0, {}, 4, 23});
  rows.push_back({std::make_unique<ctcass::CassSystem>(), 0, {}, 3, 24});
  for (const Row& row : rows) {
    const SystemUnderTest& system = *row.system;
    BaselineReport crash = RandomCrashInjector().Run(system, 40, 20190427);
    EXPECT_EQ(crash.failing_trials.size(), row.crash_failing) << system.name();
    EXPECT_EQ(BugIds(crash), row.crash_bugs) << system.name();
    BaselineReport partition = NetworkRandomInjector().Run(system, 40, 20190427);
    EXPECT_EQ(partition.failing_trials.size(), row.partition_failing) << system.name();
    EXPECT_EQ(FirstRaceTrial(system, partition), row.first_race_trial) << system.name();
  }
}

// --- Study database -------------------------------------------------------------

TEST(Study, CountsMatchThePaper) {
  ctstudy::StudySummary summary = ctstudy::Summarize();
  EXPECT_EQ(summary.total, 66);
  EXPECT_EQ(summary.timing_sensitive, 52);
  EXPECT_EQ(summary.non_timing_sensitive, 14);
  EXPECT_EQ(summary.pre_read, 37);
  EXPECT_EQ(summary.post_write, 15);
  EXPECT_EQ(summary.reproduced_by_paper, 59);
}

TEST(Study, PerSystemBreakdownMatchesTable1) {
  ctstudy::StudySummary summary = ctstudy::Summarize();
  EXPECT_EQ(summary.per_system.at("Hadoop2"), 17);
  EXPECT_EQ(summary.per_system.at("HDFS"), 7);
  EXPECT_EQ(summary.per_system.at("HBase"), 27);
  EXPECT_EQ(summary.per_system.at("ZooKeeper"), 1);
}

TEST(Study, HRegionServerDominatesHBase) {
  ctstudy::StudySummary summary = ctstudy::Summarize();
  EXPECT_EQ(summary.per_metainfo.at("HRegionServer"), 15);
}

TEST(Study, SevenBugsNotReproducedWithReasons) {
  int not_reproduced = 0;
  for (const auto& bug : ctstudy::StudiedBugs()) {
    if (!bug.reproduced_by_paper) {
      ++not_reproduced;
      EXPECT_FALSE(bug.not_reproduced_reason.empty()) << bug.id;
    }
  }
  EXPECT_EQ(not_reproduced, 7);
}

TEST(Study, FixComplexityMatchesTable6) {
  const auto& rows = ctstudy::FixComplexity();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].dataset, "CREB bugs");
  EXPECT_DOUBLE_EQ(rows[0].days_to_fix, 92.0);
  EXPECT_DOUBLE_EQ(rows[1].days_to_fix, 16.8);
  EXPECT_LT(rows[1].comments, rows[0].comments);
}

TEST(Study, KubernetesTableHas14Bugs) {
  const auto& bugs = ctstudy::KubernetesBugs();
  EXPECT_EQ(bugs.size(), 14u);
  int node = 0;
  for (const auto& bug : bugs) {
    node += bug.metainfo == "Node" ? 1 : 0;
  }
  EXPECT_EQ(node, 8);
}

}  // namespace
}  // namespace ctcore
