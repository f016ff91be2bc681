// Tests for the offline analyses: pattern matching, the Fig. 5 log-analysis
// walkthrough, the Definition 2 type closure, and crash-point identification
// with the Table 3 keyword table and the three pruning optimizations.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/crash_point_analysis.h"
#include "src/analysis/log_analysis.h"
#include "src/analysis/metainfo_inference.h"
#include "src/logging/statement.h"
#include "src/common/strings.h"
#include "src/model/catalog.h"

namespace ctanalysis {
namespace {

using ctlog::Level;
using ctlog::StatementRegistry;
using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::LogArg;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

// --- PatternMatcher -----------------------------------------------------------

TEST(PatternMatcher, MatchesInstanceToItsStatement) {
  auto& registry = StatementRegistry::Instance();
  int id = registry.Register(Level::kInfo, "Matcher test alpha {} beta {}", "M.a");
  registry.Register(Level::kInfo, "Matcher test alpha only {}", "M.b");
  PatternMatcher matcher;
  auto match = matcher.MatchInstance("Matcher test alpha v1 beta v2");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->statement_id, id);
  EXPECT_EQ(match->values, (std::vector<std::string>{"v1", "v2"}));
}

TEST(PatternMatcher, PrefersMoreSpecificPatternOnTies) {
  auto& registry = StatementRegistry::Instance();
  registry.Register(Level::kInfo, "Specifc ties {}", "M.generic");
  int specific = registry.Register(Level::kInfo, "Specifc ties exact form {}", "M.specific");
  PatternMatcher matcher;
  auto match = matcher.MatchInstance("Specifc ties exact form payload");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->statement_id, specific);
}

TEST(PatternMatcher, ReturnsNulloptForUnknownLine) {
  PatternMatcher matcher;
  EXPECT_FALSE(matcher.MatchInstance("complete gibberish zxcvbn qwerty 999").has_value());
}

// --- LogAnalysis: the Fig. 5 walkthrough ---------------------------------------

struct Fig5Fixture {
  ProgramModel model{"fig5"};
  int nm_registered;
  int assigned_host;
  int assigned_attempt;
  int jvm_task;
  std::vector<ctlog::Instance> instances;

  Fig5Fixture() {
    ctmodel::AddBaseTypes(&model);
    TypeDecl node;
    node.name = "NodeId";
    model.AddType(node);
    TypeDecl container;
    container.name = "ContainerId";
    model.AddType(container);
    TypeDecl attempt;
    attempt.name = "TaskAttemptId";
    model.AddType(attempt);
    TypeDecl jvm;
    jvm.name = "JVMId";
    model.AddType(jvm);
    FieldDecl host_field;
    host_field.clazz = "NMContext";
    host_field.name = "hostName";
    host_field.type = "java.lang.String";
    model.AddField(host_field);

    auto& registry = StatementRegistry::Instance();
    nm_registered = registry.Register(Level::kInfo, "NodeManager from {} registered as {}",
                                      "Fig5.register");
    assigned_host =
        registry.Register(Level::kInfo, "Assigned container {} on host {}", "Fig5.assignHost");
    assigned_attempt =
        registry.Register(Level::kInfo, "Assigned container {} to {}", "Fig5.assignAttempt");
    jvm_task =
        registry.Register(Level::kInfo, "JVM with ID: {} given task: {}", "Fig5.jvm");
    model.BindLog(
        {nm_registered, {{"java.lang.String", "NMContext.hostName"}, {"NodeId", ""}}});
    model.BindLog({assigned_host, {{"ContainerId", ""}, {"NodeId", ""}}});
    model.BindLog({assigned_attempt, {{"ContainerId", ""}, {"TaskAttemptId", ""}}});
    model.BindLog({jvm_task, {{"JVMId", ""}, {"TaskAttemptId", ""}}});

    auto add = [&](int stmt, std::vector<std::string> args) {
      ctlog::Instance instance;
      instance.statement_id = stmt;
      instance.level = Level::kInfo;
      instance.args = args;
      instance.text = ctcommon::FormatBraces(StatementRegistry::Instance().Get(stmt).tmpl, args);
      instance.node = "node3:42349";
      instances.push_back(instance);
    };
    // The eight lines of Fig. 5(c).
    add(nm_registered, {"node3", "node3:42349"});
    add(nm_registered, {"node4", "node4:42349"});
    add(assigned_host, {"container_3", "node3:42349"});
    add(assigned_attempt, {"container_3", "attempt_3"});
    add(assigned_host, {"container_4", "node4:42349"});
    add(assigned_attempt, {"container_4", "attempt_4"});
    add(jvm_task, {"jvm_m_4", "attempt_4"});
    add(jvm_task, {"jvm_m_4", "attempt_4"});
  }
};

TEST(LogAnalysis, Fig5DiscoversSeedTypesAndGraph) {
  Fig5Fixture fig;
  LogAnalysis analysis(&fig.model, {"node3", "node4"});
  LogAnalysisResult result = analysis.Analyze(fig.instances);

  EXPECT_EQ(result.instances_matched, 8);
  EXPECT_EQ(result.instances_mismatched, 0);
  // The * types of Table 2 for this example.
  EXPECT_TRUE(result.seed_types.count("NodeId"));
  EXPECT_TRUE(result.seed_types.count("ContainerId"));
  EXPECT_TRUE(result.seed_types.count("TaskAttemptId"));
  EXPECT_TRUE(result.seed_types.count("JVMId"));
  // The base-typed host variable becomes a field-level seed, not a type.
  EXPECT_FALSE(result.seed_types.count("java.lang.String"));
  EXPECT_TRUE(result.seed_fields.count("NMContext.hostName"));

  // Value association (Fig. 5d): everything chains back to its node.
  const auto& graph = result.graph;
  EXPECT_TRUE(graph.node_values.count("node3:42349"));
  EXPECT_EQ(graph.value_to_node.at("container_3"), "node3:42349");
  EXPECT_EQ(graph.value_to_node.at("attempt_3"), "node3:42349");
  EXPECT_EQ(graph.value_to_node.at("attempt_4"), "node4:42349");
  EXPECT_EQ(graph.value_to_node.at("jvm_m_4"), "node4:42349");
}

TEST(LogAnalysis, FixpointResolvesForwardReferences) {
  // Offline analysis revisits instances, so an early line whose association
  // only appears later is still resolved (unlike the FIFO stash).
  Fig5Fixture fig;
  std::reverse(fig.instances.begin(), fig.instances.end());
  LogAnalysis analysis(&fig.model, {"node3", "node4"});
  LogAnalysisResult result = analysis.Analyze(fig.instances);
  EXPECT_EQ(result.graph.value_to_node.at("jvm_m_4"), "node4:42349");
  EXPECT_EQ(result.graph.value_to_node.at("attempt_3"), "node3:42349");
}

TEST(LogAnalysis, OnlineFilterCoversMetaInfoArgs) {
  Fig5Fixture fig;
  LogAnalysis analysis(&fig.model, {"node3", "node4"});
  LogAnalysisResult result = analysis.Analyze(fig.instances);
  ctlog::OnlineFilter filter = analysis.MakeOnlineFilter(result);
  EXPECT_EQ(filter.hosts.count("node3"), 1u);
  ASSERT_TRUE(filter.metainfo_args.count(fig.assigned_attempt));
  EXPECT_EQ(filter.metainfo_args.at(fig.assigned_attempt), (std::vector<int>{0, 1}));
}

// --- MetaInfoInference: Definition 2 -------------------------------------------

ProgramModel Def2Model() {
  ProgramModel model("def2");
  ctmodel::AddBaseTypes(&model);
  for (const char* name : {"NodeId", "NodeIdPBImpl", "SchedulerNode"}) {
    TypeDecl type;
    type.name = name;
    if (std::string(name) == "NodeIdPBImpl") {
      type.supertype = "NodeId";
    }
    model.AddType(type);
  }
  TypeDecl coll;
  coll.name = "HashMap<NodeId,SchedulerNode>";
  coll.element_types = {"NodeId", "SchedulerNode"};
  model.AddType(coll);
  TypeDecl container;
  container.name = "RMContainerImpl";
  model.AddType(container);
  TypeDecl container_id;
  container_id.name = "ContainerId";
  model.AddType(container_id);
  // RMContainerImpl is uniquely indexed by its ctor-only ContainerId field —
  // the paper's own example for the containing-class rule.
  FieldDecl indexed;
  indexed.clazz = "RMContainerImpl";
  indexed.name = "containerId";
  indexed.type = "ContainerId";
  indexed.set_only_in_constructor = true;
  model.AddField(indexed);
  // Same shape but NOT ctor-only: must not promote the containing class.
  TypeDecl other;
  other.name = "ContainerCache";
  model.AddType(other);
  FieldDecl mutable_field;
  mutable_field.clazz = "ContainerCache";
  mutable_field.name = "last";
  mutable_field.type = "ContainerId";
  model.AddField(mutable_field);
  // A String field: base types are never generalized.
  TypeDecl holder;
  holder.name = "HostHolder";
  model.AddType(holder);
  FieldDecl str;
  str.clazz = "HostHolder";
  str.name = "host";
  str.type = "java.lang.String";
  str.set_only_in_constructor = true;
  model.AddField(str);
  return model;
}

TEST(MetaInfoInference, SubtypeAndCollectionRules) {
  ProgramModel model = Def2Model();
  MetaInfoInference inference(&model);
  MetaInfoResult result = inference.Infer({"NodeId"}, {});
  EXPECT_TRUE(result.IsMetaInfoType("NodeId"));
  EXPECT_TRUE(result.IsMetaInfoType("NodeIdPBImpl"));
  EXPECT_TRUE(result.IsMetaInfoType("HashMap<NodeId,SchedulerNode>"));
  EXPECT_FALSE(result.IsMetaInfoType("SchedulerNode"));  // value type, not element-seeded
  EXPECT_EQ(result.types.at("NodeIdPBImpl").group, "NodeId");
  EXPECT_FALSE(result.types.at("NodeIdPBImpl").from_log);
  EXPECT_TRUE(result.types.at("NodeId").from_log);
}

TEST(MetaInfoInference, ContainingClassRuleRequiresCtorOnly) {
  ProgramModel model = Def2Model();
  MetaInfoInference inference(&model);
  MetaInfoResult result = inference.Infer({"ContainerId"}, {});
  EXPECT_TRUE(result.IsMetaInfoType("RMContainerImpl"));   // ctor-only field
  EXPECT_FALSE(result.IsMetaInfoType("ContainerCache"));   // mutable field
  // Fields of meta-info type are meta-info fields either way.
  EXPECT_TRUE(result.IsMetaInfoField("RMContainerImpl.containerId"));
  EXPECT_TRUE(result.IsMetaInfoField("ContainerCache.last"));
}

TEST(MetaInfoInference, BaseTypesAreNeverGeneralized) {
  ProgramModel model = Def2Model();
  MetaInfoInference inference(&model);
  // Even seeded directly, a base type never joins the set...
  MetaInfoResult result = inference.Infer({"java.lang.String"}, {});
  EXPECT_FALSE(result.IsMetaInfoType("java.lang.String"));
  EXPECT_EQ(result.NumFields(), 0);
  // ...but a log-identified base-typed *field* is meta-info and promotes its
  // containing class.
  result = inference.Infer({}, {"HostHolder.host"});
  EXPECT_TRUE(result.IsMetaInfoField("HostHolder.host"));
  EXPECT_TRUE(result.IsMetaInfoType("HostHolder"));
}

TEST(MetaInfoInference, ByGroupPutsLogIdentifiedFirst) {
  ProgramModel model = Def2Model();
  MetaInfoInference inference(&model);
  MetaInfoResult result = inference.Infer({"NodeId"}, {});
  auto groups = result.ByGroup();
  ASSERT_TRUE(groups.count("NodeId"));
  EXPECT_TRUE(groups["NodeId"].front().from_log);
}

// --- CrashPointAnalysis --------------------------------------------------------

// Table 3 keyword classification, parameterized over the full keyword lists.
class CollectionReadKeyword : public ::testing::TestWithParam<const char*> {};
TEST_P(CollectionReadKeyword, Classifies) {
  EXPECT_TRUE(IsCollectionReadOp(GetParam()));
  EXPECT_TRUE(IsCollectionReadOp(std::string(GetParam()) + "Something"));
}
INSTANTIATE_TEST_SUITE_P(Table3Read, CollectionReadKeyword,
                         ::testing::Values("get", "peek", "poll", "clone", "at", "element",
                                           "index", "toArray", "sub", "contain", "isEmpty",
                                           "exist", "values"));

class CollectionWriteKeyword : public ::testing::TestWithParam<const char*> {};
TEST_P(CollectionWriteKeyword, Classifies) {
  EXPECT_TRUE(IsCollectionWriteOp(GetParam()));
  EXPECT_TRUE(IsCollectionWriteOp(std::string(GetParam()) + "All"));
}
INSTANTIATE_TEST_SUITE_P(Table3Write, CollectionWriteKeyword,
                         ::testing::Values("add", "clear", "remove", "retain", "put", "insert",
                                           "set", "replace", "offer", "push", "pop", "copyInto"));

TEST(CollectionKeywords, NonAccessOpsMatchNeither) {
  for (const char* op : {"iterator", "stream", "size", "forEach", "hashCode"}) {
    EXPECT_FALSE(IsCollectionReadOp(op)) << op;
    EXPECT_FALSE(IsCollectionWriteOp(op)) << op;
  }
}

struct CrashPointFixture {
  ProgramModel model{"cp"};
  MetaInfoResult metainfo;
  int plain_read;
  int plain_write;
  int unused_read;
  int sanity_read;
  int ctor_field_read;
  int collection_get;
  int collection_iterator;
  int promoted_read;
  std::vector<int> sites;

  CrashPointFixture() {
    ctmodel::AddBaseTypes(&model);
    TypeDecl meta;
    meta.name = "NodeId";
    model.AddType(meta);
    TypeDecl other;
    other.name = "Plain";
    model.AddType(other);
    auto add_field = [&](const std::string& clazz, const std::string& name,
                         const std::string& type, bool ctor_only = false) {
      FieldDecl field;
      field.clazz = clazz;
      field.name = name;
      field.type = type;
      field.set_only_in_constructor = ctor_only;
      model.AddField(field);
    };
    add_field("A", "node", "NodeId");
    add_field("A", "fixed", "NodeId", /*ctor_only=*/true);
    add_field("A", "other", "Plain");

    auto add_point = [&](const std::string& field, AccessKind kind, const std::string& op = "",
                         bool unused = false, bool sanity = false, bool returned = false,
                         std::vector<int> promoted = {}) {
      AccessPointDecl point;
      point.field_id = field;
      point.kind = kind;
      point.clazz = "A";
      point.method = "m";
      point.collection_op = op;
      point.value_unused = unused;
      point.sanity_checked = sanity;
      point.returned_directly = returned;
      point.promoted_sites = promoted;
      return model.AddAccessPoint(point);
    };
    plain_read = add_point("A.node", AccessKind::kRead);
    plain_write = add_point("A.node", AccessKind::kWrite);
    unused_read = add_point("A.node", AccessKind::kRead, "", /*unused=*/true);
    sanity_read = add_point("A.node", AccessKind::kRead, "", false, /*sanity=*/true);
    ctor_field_read = add_point("A.fixed", AccessKind::kRead);
    collection_get = add_point("A.node", AccessKind::kRead, "get");
    collection_iterator = add_point("A.node", AccessKind::kRead, "iterator");
    // Promotion: a returned-directly read with 3 call sites (one unused).
    sites.push_back(add_point("A.node", AccessKind::kRead));
    sites.push_back(add_point("A.node", AccessKind::kRead, "", /*unused=*/true));
    sites.push_back(add_point("A.node", AccessKind::kRead));
    promoted_read =
        add_point("A.node", AccessKind::kRead, "", false, false, /*returned=*/true, sites);
    // Non-meta point: never a candidate.
    add_point("A.other", AccessKind::kRead);

    MetaInfoInference inference(&model);
    metainfo = inference.Infer({"NodeId"}, {});
  }
};

TEST(CrashPointAnalysis, IdentifiesAndPrunes) {
  CrashPointFixture fixture;
  CrashPointAnalysis analysis(&fixture.model, &fixture.metainfo);
  CrashPointResult result = analysis.Identify();

  std::set<int> ids = result.PointIds();
  EXPECT_TRUE(ids.count(fixture.plain_read));
  EXPECT_TRUE(ids.count(fixture.plain_write));
  EXPECT_TRUE(ids.count(fixture.collection_get));
  EXPECT_FALSE(ids.count(fixture.unused_read));
  EXPECT_FALSE(ids.count(fixture.sanity_read));
  EXPECT_FALSE(ids.count(fixture.ctor_field_read));
  EXPECT_FALSE(ids.count(fixture.collection_iterator));  // not an access op: no pruning rule
  EXPECT_FALSE(ids.count(fixture.promoted_read));        // replaced by sites
  EXPECT_TRUE(ids.count(fixture.sites[0]));
  EXPECT_FALSE(ids.count(fixture.sites[1]));  // unused site pruned
  EXPECT_TRUE(ids.count(fixture.sites[2]));

  EXPECT_EQ(result.pruned_constructor, 1);
  EXPECT_EQ(result.pruned_unused, 2);  // standalone + promoted site
  EXPECT_EQ(result.pruned_sanity_checked, 1);
  EXPECT_EQ(result.promoted_points, 1);
  EXPECT_EQ(result.promotion_sites, 3);
  EXPECT_EQ(std::count_if(result.points.begin(), result.points.end(),
                          [](const StaticCrashPoint& point) {
                            return point.kind == CrashPointKind::kPostWrite;
                          }),
            1);
}

TEST(CrashPointAnalysis, OptimizationsCanBeDisabled) {
  CrashPointFixture fixture;
  CrashPointAnalysis analysis(&fixture.model, &fixture.metainfo);
  CrashPointOptions options;
  options.prune = false;
  CrashPointResult result = analysis.Identify(options);
  std::set<int> ids = result.PointIds();
  EXPECT_TRUE(ids.count(fixture.unused_read));
  EXPECT_TRUE(ids.count(fixture.sanity_read));
  EXPECT_TRUE(ids.count(fixture.ctor_field_read));
  EXPECT_EQ(result.pruned_unused, 0);
  EXPECT_EQ(result.pruned_sanity_checked, 0);
  EXPECT_EQ(result.pruned_constructor, 0);
}

}  // namespace
}  // namespace ctanalysis
