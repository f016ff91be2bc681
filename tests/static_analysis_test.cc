// Static call-graph analysis, bounded context enumeration, model linting and
// the keyword/promotion edge cases of the crash-point analysis.
//
// The load-bearing assertion is per-system 100% recall: every ⟨point,
// context⟩ pair the profiler observes must be statically enumerable at the
// tracer's stack depth. Precision may be < 1 (the enumeration is an
// over-approximation) but recall < 1 means the declared call structure and
// the executable mini system have drifted apart.
#include <gtest/gtest.h>

#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/analysis/crash_point_analysis.h"
#include "src/analysis/model_lint.h"
#include "src/core/crashtuner.h"
#include "src/logging/statement.h"
#include "src/runtime/tracer.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctanalysis::CallGraph;
using ctanalysis::CompareWithProfile;
using ctanalysis::ContextCrossCheck;
using ctanalysis::ContextEnumeration;
using ctanalysis::IsCollectionReadOp;
using ctanalysis::IsCollectionWriteOp;
using ctanalysis::LintModel;
using ctanalysis::LintResult;
using ctanalysis::StaticContextResult;
using ctcore::ContextMode;
using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::SystemReport;
using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::CallKind;
using ctmodel::MethodDecl;
using ctmodel::ProgramModel;

// --- Small hand-built model -------------------------------------------------

void DeclareMethod(ProgramModel* model, const std::string& clazz, const std::string& name,
                   bool entry = false) {
  MethodDecl method;
  method.clazz = clazz;
  method.name = name;
  method.entry_point = entry;
  model->AddMethod(method);
}

// rpc (entry) -> helper -> leaf; rpc -async-> worker; virtual dispatch from
// rpc through Base.visit to Derived.visit.
ProgramModel TinyModel() {
  ProgramModel model("tiny");
  ctmodel::TypeDecl base;
  base.name = "Base";
  model.AddType(base);
  ctmodel::TypeDecl derived;
  derived.name = "Derived";
  derived.supertype = "Base";
  model.AddType(derived);

  DeclareMethod(&model, "Server", "rpc", /*entry=*/true);
  DeclareMethod(&model, "Server", "helper");
  DeclareMethod(&model, "Server", "leaf");
  DeclareMethod(&model, "Server", "worker");
  DeclareMethod(&model, "Derived", "visit");
  model.AddCallEdge({"Server.rpc", "Server.helper", CallKind::kStatic});
  model.AddCallEdge({"Server.helper", "Server.leaf", CallKind::kStatic});
  model.AddCallEdge({"Server.rpc", "Server.worker", CallKind::kAsync});
  model.AddCallEdge({"Server.rpc", "Base.visit", CallKind::kVirtual});
  return model;
}

TEST(CallGraph, ResolvesVirtualDispatchThroughSubtypes) {
  ProgramModel model = TinyModel();
  CallGraph graph(model);
  bool found = false;
  for (const auto& edge : graph.edges()) {
    if (edge.caller == "Server.rpc" && edge.callee == "Derived.visit") {
      found = true;
      EXPECT_EQ(edge.kind, CallKind::kVirtual);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(graph.IsReachable("Derived.visit"));
}

TEST(CallGraph, AsyncCalleesAreContextRootsAndReachable) {
  ProgramModel model = TinyModel();
  CallGraph graph(model);
  EXPECT_TRUE(graph.IsContextRoot("Server.rpc"));     // entry point
  EXPECT_TRUE(graph.IsContextRoot("Server.worker"));  // async callee
  EXPECT_FALSE(graph.IsContextRoot("Server.helper"));
  EXPECT_TRUE(graph.IsReachable("Server.leaf"));
  EXPECT_TRUE(graph.IsReachable("Server.worker"));
}

TEST(CallGraph, UndeclaredMethodIsUnreachable) {
  ProgramModel model = TinyModel();
  CallGraph graph(model);
  EXPECT_FALSE(graph.IsReachable("Server.nonexistent"));
  EXPECT_TRUE(graph.SyncCallersOf("Server.nonexistent").empty());
}

TEST(ContextEnumeration, CompleteStringsEndAtContextRoots) {
  ProgramModel model = TinyModel();
  CallGraph graph(model);
  ContextEnumeration enumeration(&graph);
  std::set<std::string> keys = enumeration.EnumerateMethod("Server.leaf", 5);
  // The only complete stack: leaf under helper under the rpc entry.
  EXPECT_EQ(keys, (std::set<std::string>{"Server.leaf<Server.helper<Server.rpc"}));
  // The async worker starts its own stack.
  EXPECT_EQ(enumeration.EnumerateMethod("Server.worker", 5),
            (std::set<std::string>{"Server.worker"}));
}

TEST(ContextEnumeration, DepthBoundAdmitsTruncatedStrings) {
  ProgramModel model = TinyModel();
  CallGraph graph(model);
  ContextEnumeration enumeration(&graph);
  // At depth 2 the full leaf<helper<rpc string does not fit; the 2-frame
  // truncation leaf<helper is what a depth-2 tracer stack would show.
  EXPECT_EQ(enumeration.EnumerateMethod("Server.leaf", 2),
            (std::set<std::string>{"Server.leaf<Server.helper"}));
  // At depth 1 every method truncates to itself.
  EXPECT_EQ(enumeration.EnumerateMethod("Server.leaf", 1),
            (std::set<std::string>{"Server.leaf"}));
  EXPECT_TRUE(enumeration.EnumerateMethod("Server.leaf", 0).empty());
}

TEST(CallGraph, FeasibleRootsRequireReachability) {
  // An async edge from an unreachable scheduler makes its callee a context
  // root, but no workload can ever give birth to a stack there.
  ProgramModel model = TinyModel();
  DeclareMethod(&model, "Server", "orphanScheduler");  // no entry, no callers
  DeclareMethod(&model, "Server", "orphanWorker");
  model.AddCallEdge({"Server.orphanScheduler", "Server.orphanWorker", CallKind::kAsync});
  CallGraph graph(model);
  EXPECT_TRUE(graph.IsContextRoot("Server.orphanWorker"));
  EXPECT_FALSE(graph.IsFeasibleRoot("Server.orphanWorker"));
  EXPECT_TRUE(graph.IsFeasibleRoot("Server.rpc"));
  EXPECT_TRUE(graph.IsFeasibleRoot("Server.worker"));
  // The sync closure descends from feasible roots only.
  EXPECT_TRUE(graph.IsSyncReachableFromFeasibleRoot("Server.leaf"));
  EXPECT_FALSE(graph.IsSyncReachableFromFeasibleRoot("Server.orphanWorker"));
}

TEST(ContextEnumeration, PruneDropsStringsRootedAtInfeasibleRoots) {
  ProgramModel model = TinyModel();
  DeclareMethod(&model, "Server", "orphanScheduler");
  DeclareMethod(&model, "Server", "orphanWorker");
  model.AddCallEdge({"Server.orphanScheduler", "Server.orphanWorker", CallKind::kAsync});
  // The orphan worker also calls leaf synchronously: leaf now has a second
  // caller chain, but one no workload can realize.
  model.AddCallEdge({"Server.orphanWorker", "Server.leaf", CallKind::kStatic});
  CallGraph graph(model);
  ContextEnumeration enumeration(&graph);
  std::set<std::string> unpruned = enumeration.EnumerateMethod("Server.leaf", 5);
  EXPECT_EQ(unpruned.count("Server.leaf<Server.orphanWorker"), 1u);
  std::set<std::string> pruned =
      enumeration.EnumerateMethod("Server.leaf", 5, /*prune_infeasible=*/true);
  EXPECT_EQ(pruned.count("Server.leaf<Server.orphanWorker"), 0u);
  // The realizable string survives the prune untouched.
  EXPECT_EQ(pruned.count("Server.leaf<Server.helper<Server.rpc"), 1u);
  EXPECT_FALSE(enumeration.IsFeasibleKey("Server.leaf<Server.orphanWorker", 5));
  EXPECT_TRUE(enumeration.IsFeasibleKey("Server.leaf<Server.helper<Server.rpc", 5));
}

TEST(ContextEnumeration, TruncatedStringsPrunedOutsideSyncClosure) {
  // A 5-deep chain hanging off an infeasible root: its depth-truncated
  // strings end at methods outside the feasible sync closure and are pruned.
  ProgramModel model("truncation");
  DeclareMethod(&model, "S", "entry", /*entry=*/true);
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    DeclareMethod(&model, "S", name);
  }
  // entry -> a; dead root chain f -> b -> c -> d -> e -> a (f unreachable).
  model.AddCallEdge({"S.entry", "S.a", CallKind::kStatic});
  model.AddCallEdge({"S.f", "S.b", CallKind::kStatic});
  model.AddCallEdge({"S.b", "S.c", CallKind::kStatic});
  model.AddCallEdge({"S.c", "S.d", CallKind::kStatic});
  model.AddCallEdge({"S.d", "S.e", CallKind::kStatic});
  model.AddCallEdge({"S.e", "S.a", CallKind::kStatic});
  CallGraph graph(model);
  ContextEnumeration enumeration(&graph);
  std::set<std::string> unpruned = enumeration.EnumerateMethod("S.a", 5);
  // Truncated 5-frame window through the dead chain is admitted unpruned...
  EXPECT_EQ(unpruned.count("S.a<S.e<S.d<S.c<S.b"), 1u);
  // ...but pruned: S.b is not in the sync closure of any feasible root.
  std::set<std::string> pruned = enumeration.EnumerateMethod("S.a", 5, true);
  EXPECT_EQ(pruned, (std::set<std::string>{"S.a<S.entry"}));
}

TEST(ContextEnumeration, ContextMethodOverridesDeclaredAnchor) {
  ProgramModel model = TinyModel();
  ctmodel::FieldDecl field;
  field.clazz = "Server";
  field.name = "state";
  field.type = "java.lang.String";
  model.AddField(field);
  AccessPointDecl point;
  point.field_id = "Server.state";
  point.kind = AccessKind::kRead;
  point.clazz = "Server";
  point.method = "leaf";
  point.context_method = "Server.helper";  // hook fires before leaf's frame
  point.executable = true;
  int id = model.AddAccessPoint(point);

  CallGraph graph(model);
  StaticContextResult result = ContextEnumeration(&graph).EnumerateAll(5);
  ASSERT_EQ(result.contexts_by_point.count(id), 1u);
  EXPECT_EQ(result.contexts_by_point.at(id),
            (std::set<std::string>{"Server.helper<Server.rpc"}));
}

// --- Per-system recall (the tentpole invariant) -----------------------------

// The driver's static-only enumeration against the full profiled fixpoint.
template <typename System>
void ExpectFullRecall(const System& system) {
  const SystemReport profiled = CrashTunerDriver().Run(system);
  CallGraph graph(system.model());
  const ContextCrossCheck check = CompareWithProfile(
      ContextEnumeration(&graph).EnumerateAll(ctrt::AccessTracer::DefaultStackDepth(),
                                              /*prune_infeasible=*/true),
      profiled.profile.dynamic_access_points);
  EXPECT_GT(check.observed, 0) << profiled.system;
  for (const auto& [point_id, key] : check.missed) {
    ADD_FAILURE() << profiled.system << ": observed context not enumerated: p" << point_id
                  << " key=[" << key << "]";
  }
  EXPECT_DOUBLE_EQ(check.Recall(), 1.0) << profiled.system;
  EXPECT_LE(check.Precision(), 1.0) << profiled.system;

  DriverOptions options;
  options.context_mode = ContextMode::kStaticOnly;
  const SystemReport report = CrashTunerDriver().Run(system, options);
  // The static set replaces the profiled one and is at least as large.
  EXPECT_GE(report.dynamic_crash_points, check.observed) << report.system;
  EXPECT_EQ(report.dynamic_crash_points, report.static_contexts) << report.system;
}

TEST(StaticContextRecall, Yarn) { ExpectFullRecall(ctyarn::YarnSystem()); }
TEST(StaticContextRecall, YarnLegacy) {
  ExpectFullRecall(ctyarn::YarnSystem(ctyarn::YarnMode::kLegacy));
}
TEST(StaticContextRecall, Hdfs) { ExpectFullRecall(cthdfs::HdfsSystem()); }
TEST(StaticContextRecall, HBase) { ExpectFullRecall(cthbase::HBaseSystem()); }
TEST(StaticContextRecall, ZooKeeper) { ExpectFullRecall(ctzk::ZkSystem()); }
TEST(StaticContextRecall, Cassandra) { ExpectFullRecall(ctcass::CassSystem()); }

TEST(StaticContextModes, StaticOnlySkipsInstrumentedRuns) {
  DriverOptions options;
  options.context_mode = ContextMode::kStaticOnly;
  SystemReport report = CrashTunerDriver().Run(ctzk::ZkSystem(), options);
  EXPECT_EQ(report.profile.iterations, 1);
  EXPECT_EQ(report.profile.instrumented_runs, 0);
  EXPECT_GT(report.static_contexts, 0);
  EXPECT_EQ(report.dynamic_crash_points, report.static_contexts);
  EXPECT_GT(report.profile.normal_duration_ms, 0);
}

TEST(StaticContextModes, StaticSetContainsEveryProfiledPair) {
  // Definition 1 soundness end to end: run the default profiled pipeline and
  // the static pipeline, then check set containment on the actual pairs.
  SystemReport profiled = CrashTunerDriver().Run(cthdfs::HdfsSystem());
  DriverOptions options;
  options.context_mode = ContextMode::kStaticOnly;
  SystemReport enumerated = CrashTunerDriver().Run(cthdfs::HdfsSystem(), options);
  for (const auto& pair : profiled.profile.dynamic_access_points) {
    EXPECT_EQ(enumerated.profile.dynamic_access_points.count(pair), 1u)
        << "p" << pair.point_id << " key=[" << pair.stack_key << "]";
  }
}

// --- Model linter ------------------------------------------------------------

TEST(ModelLint, ShippedModelsAreClean) {
  EXPECT_TRUE(LintModel(ctyarn::GetYarnArtifacts(ctyarn::YarnMode::kTrunk).model).ok());
  EXPECT_TRUE(LintModel(ctyarn::GetYarnArtifacts(ctyarn::YarnMode::kLegacy).model).ok());
  EXPECT_TRUE(LintModel(cthdfs::GetHdfsArtifacts().model).ok());
  EXPECT_TRUE(LintModel(cthbase::GetHBaseArtifacts().model).ok());
  EXPECT_TRUE(LintModel(ctzk::GetZkArtifacts().model).ok());
  EXPECT_TRUE(LintModel(ctcass::GetCassArtifacts().model).ok());
}

TEST(ModelLint, FlagsDeliberatelyBrokenModel) {
  ProgramModel model = TinyModel();
  ctmodel::FieldDecl field;
  field.clazz = "Server";
  field.name = "state";
  field.type = "java.lang.String";
  model.AddField(field);

  AccessPointDecl dangling;
  dangling.field_id = "Server.removedField";  // never declared
  dangling.kind = AccessKind::kRead;
  dangling.clazz = "Server";
  dangling.method = "leaf";
  dangling.collection_op = "iterate";  // matches neither Table 3 list
  model.AddAccessPoint(dangling);

  AccessPointDecl orphan;
  orphan.field_id = "Server.state";
  orphan.kind = AccessKind::kRead;
  orphan.clazz = "Ghost";  // class with no declared methods
  orphan.method = "spook";
  orphan.executable = true;  // and its anchor is unreachable
  orphan.promoted_sites = {99};  // out of range, and not returned_directly
  model.AddAccessPoint(orphan);

  model.AddCallEdge({"Server.rpc", "Server.deleted", CallKind::kStatic});

  LintResult result = LintModel(model);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountOf("dangling-field"), 1);
  EXPECT_EQ(result.CountOf("unknown-op"), 1);
  EXPECT_GE(result.CountOf("dangling-promotion"), 2);  // no flag + bad site id
  EXPECT_EQ(result.CountOf("method-less-class"), 1);
  EXPECT_EQ(result.CountOf("dangling-edge"), 1);
  EXPECT_EQ(result.CountOf("unreachable-point"), 1);
}

TEST(ModelLint, FlagsDeclsEmbeddingConcreteNodeIndices) {
  // Synthetic offenders: decls pinned to one member of one deployment stop
  // matching anything past the first replica once --scale stamps out more.
  ProgramModel model = TinyModel();

  ctmodel::AccessPointDecl indexed_class;
  indexed_class.field_id = "Server.state";  // undeclared; not this check's concern
  indexed_class.clazz = "RServer3";         // role stem + concrete index
  indexed_class.method = "open";
  model.AddAccessPoint(indexed_class);

  ctmodel::AccessPointDecl indexed_context;
  indexed_context.clazz = "Server";
  indexed_context.method = "rpc";
  indexed_context.context_method = "Server.handleNode12";  // index hides in the anchor
  model.AddAccessPoint(indexed_context);

  ctmodel::AccessPointDecl host_port;
  host_port.clazz = "Server";
  host_port.method = "connect_namenode1:9000";  // host:port instance
  model.AddAccessPoint(host_port);

  LintResult result = LintModel(model);
  EXPECT_EQ(result.CountOf("scale-invariant-decl"), 3);

  // Role names without a trailing index never trip the check.
  ProgramModel clean = TinyModel();
  ctmodel::AccessPointDecl role;
  role.clazz = "NodeManager";
  role.method = "registerWithRM";
  clean.AddAccessPoint(role);
  EXPECT_EQ(LintModel(clean).CountOf("scale-invariant-decl"), 0);
}

TEST(ModelLint, FlagsGrammarOpsWithUnknownTargets) {
  // Synthetic offenders: grammar ops pointing at nothing the model declares
  // would generate messages no node handles (or kills of no role), quietly
  // starving every fuzz campaign of that op's coverage.
  ProgramModel model = TinyModel();

  ctmodel::GrammarOpDecl good;
  good.name = "tiny.rpc";
  good.kind = ctmodel::GrammarOpKind::kRpc;
  good.target_method = "Server.rpc";
  good.target_prefix = "srv";
  model.AddGrammarOp(good);

  ctmodel::GrammarOpDecl bad_method = good;
  bad_method.name = "tiny.ghost-rpc";
  bad_method.target_method = "Server.removedRpc";  // never declared
  model.AddGrammarOp(bad_method);

  ctmodel::GrammarOpDecl bad_class = good;
  bad_class.name = "tiny.kill";
  bad_class.kind = ctmodel::GrammarOpKind::kCrash;
  bad_class.target_class = "Ghost";  // declares no methods
  model.AddGrammarOp(bad_class);

  ctmodel::GrammarOpDecl malformed = good;
  malformed.name = "tiny.rpc";  // duplicate name
  malformed.target_prefix = "";  // nothing to draw a victim from
  malformed.weight = 0;          // never drawable
  malformed.min_time_ms = 5000;  // empty firing window
  malformed.max_time_ms = 5000;
  model.AddGrammarOp(malformed);

  LintResult result = LintModel(model);
  EXPECT_EQ(result.CountOf("grammar-op-unknown-target"), 6);

  // A model with only the well-formed op stays clean.
  ProgramModel clean = TinyModel();
  clean.AddGrammarOp(good);
  EXPECT_EQ(LintModel(clean).CountOf("grammar-op-unknown-target"), 0);
}

TEST(ModelLint, VirtualEdgeWithNoDispatchTargetIsDangling) {
  ProgramModel model = TinyModel();
  model.AddCallEdge({"Server.rpc", "Base.render", CallKind::kVirtual});
  LintResult result = LintModel(model);
  EXPECT_EQ(result.CountOf("dangling-edge"), 1);
}

TEST(ModelLint, FlagsLogBindingAgainstUndeclaredLocation) {
  // The template uses nonsense tokens so the shared registry entry can never
  // shadow a real statement in the pattern matcher.
  ProgramModel model = TinyModel();
  auto& registry = ctlog::StatementRegistry::Instance();

  ctmodel::LogBinding bad;
  bad.statement_id = registry.Register(ctlog::Level::kInfo, "lintcheck qqz {}",
                                       "Server.vanished");  // not a declared method
  model.BindLog(bad);

  ctmodel::LogBinding good;
  good.statement_id =
      registry.Register(ctlog::Level::kInfo, "lintcheck qqy {}", "Server.helper");
  model.BindLog(good);

  ctmodel::LogBinding unregistered;
  unregistered.statement_id = registry.size() + 1000;
  model.BindLog(unregistered);

  LintResult result = LintModel(model);
  EXPECT_EQ(result.CountOf("dangling-log-location"), 2);
}

TEST(ModelLint, FlagsInconsistentIoPoints) {
  ProgramModel model = TinyModel();
  model.AddIoMethod({"fs.Stream", "write"});

  ctmodel::IoPointDecl ok;
  ok.io_class = "fs.Stream";
  ok.io_method = "write";
  ok.callsite = "Server.leaf";  // declared and reachable from Server.rpc
  ok.executable = true;
  model.AddIoPoint(ok);

  ctmodel::IoPointDecl undeclared_method = ok;
  undeclared_method.io_method = "fsync";  // no such IoMethodDecl
  model.AddIoPoint(undeclared_method);

  ctmodel::IoPointDecl dangling_callsite = ok;
  dangling_callsite.callsite = "Server.vanished";
  model.AddIoPoint(dangling_callsite);

  DeclareMethod(&model, "Server", "island");  // declared, but no edges reach it
  ctmodel::IoPointDecl unreachable = ok;
  unreachable.callsite = "Server.island";
  model.AddIoPoint(unreachable);

  // A non-executable point only needs its method pair declared, like the
  // catalog-only access points.
  ctmodel::IoPointDecl catalog_only = ok;
  catalog_only.callsite = "Server.vanished";
  catalog_only.executable = false;
  model.AddIoPoint(catalog_only);

  LintResult result = LintModel(model);
  EXPECT_EQ(result.CountOf("dangling-io-method"), 1);
  EXPECT_EQ(result.CountOf("dangling-io-callsite"), 1);
  EXPECT_EQ(result.CountOf("unreachable-io-point"), 1);
}

// --- Table 3 keyword edge cases ---------------------------------------------

TEST(CollectionKeywords, PrefixMatchingIsCaseInsensitive) {
  EXPECT_TRUE(IsCollectionReadOp("get"));
  EXPECT_TRUE(IsCollectionReadOp("getOrDefault"));
  EXPECT_TRUE(IsCollectionReadOp("GET"));
  EXPECT_TRUE(IsCollectionReadOp("isEmpty"));
  EXPECT_TRUE(IsCollectionReadOp("containsKey"));
  EXPECT_TRUE(IsCollectionReadOp("toArray"));
  EXPECT_TRUE(IsCollectionWriteOp("putIfAbsent"));
  EXPECT_TRUE(IsCollectionWriteOp("removeAll"));
  EXPECT_TRUE(IsCollectionWriteOp("setValue"));
}

TEST(CollectionKeywords, NonAccessOpsMatchNeitherList) {
  for (const char* op : {"iterator", "stream", "forEach", "size", "hash", ""}) {
    EXPECT_FALSE(IsCollectionReadOp(op)) << op;
    EXPECT_FALSE(IsCollectionWriteOp(op)) << op;
  }
  // Keyword is a *prefix* match, so "at" also claims "attach" — the paper's
  // keyword table has the same quirk; the linter exists to catch misuse.
  EXPECT_TRUE(IsCollectionReadOp("attach"));
}

TEST(CollectionKeywords, ReadAndWriteListsAreDisjointOnCommonOps) {
  for (const char* op : {"get", "peek", "poll", "values", "contain"}) {
    EXPECT_TRUE(IsCollectionReadOp(op)) << op;
    EXPECT_FALSE(IsCollectionWriteOp(op)) << op;
  }
  for (const char* op : {"put", "add", "clear", "offer", "push"}) {
    EXPECT_TRUE(IsCollectionWriteOp(op)) << op;
    EXPECT_FALSE(IsCollectionReadOp(op)) << op;
  }
}

// --- Return-site promotion edge cases ---------------------------------------

ProgramModel PromotionModel(std::vector<int> promoted_sites, bool returned = true) {
  ProgramModel model("promo");
  ctmodel::TypeDecl type;
  type.name = "meta.Type";
  model.AddType(type);
  ctmodel::FieldDecl field;
  field.clazz = "Holder";
  field.name = "map";
  field.type = "meta.Type";
  model.AddField(field);
  AccessPointDecl read;
  read.field_id = "Holder.map";
  read.kind = AccessKind::kRead;
  read.clazz = "Holder";
  read.method = "getThing";
  read.returned_directly = returned;
  read.promoted_sites = std::move(promoted_sites);
  model.AddAccessPoint(read);
  return model;
}

ctanalysis::MetaInfoResult AllMetaInfo(const ProgramModel& model) {
  ctanalysis::MetaInfoInference inference(&model);
  return inference.Infer({"meta.Type"}, {});
}

TEST(ReturnPromotion, EmptyPromotedSitesPromotesToNothing) {
  ProgramModel model = PromotionModel({});
  ctanalysis::MetaInfoResult metainfo = AllMetaInfo(model);
  ctanalysis::CrashPointAnalysis analysis(&model, &metainfo);
  ctanalysis::CrashPointResult result = analysis.Identify();
  // The returned-directly read is expanded away; with no call sites the
  // candidate vanishes entirely rather than surviving as itself.
  EXPECT_EQ(result.promoted_points, 1);
  EXPECT_EQ(result.promotion_sites, 0);
  EXPECT_TRUE(result.points.empty());
}

TEST(ReturnPromotion, SitesWithoutReturnedFlagAreLintedNotPromoted) {
  // promoted_sites on a point that is not returned_directly is a model bug:
  // the analysis ignores the sites, and the linter reports it.
  ProgramModel model = PromotionModel({0}, /*returned=*/false);
  ctanalysis::MetaInfoResult metainfo = AllMetaInfo(model);
  ctanalysis::CrashPointAnalysis analysis(&model, &metainfo);
  ctanalysis::CrashPointResult result = analysis.Identify();
  EXPECT_EQ(result.promoted_points, 0);
  EXPECT_GE(LintModel(model).CountOf("dangling-promotion"), 1);
}

// --- Unreachable pruning (opt-in) -------------------------------------------

TEST(UnreachablePruning, DropsCandidatesWithUnreachableAnchors) {
  ProgramModel model = TinyModel();
  ctmodel::FieldDecl field;
  field.clazz = "Server";
  field.name = "peers";
  field.type = "meta.Type";
  model.AddField(field);
  ctmodel::TypeDecl type;
  type.name = "meta.Type";
  model.AddType(type);

  AccessPointDecl live;
  live.field_id = "Server.peers";
  live.kind = AccessKind::kRead;
  live.clazz = "Server";
  live.method = "leaf";
  model.AddAccessPoint(live);
  AccessPointDecl dead;
  dead.field_id = "Server.peers";
  dead.kind = AccessKind::kRead;
  dead.clazz = "Server";
  dead.method = "orphan";  // declared nowhere, reached from nowhere
  model.AddAccessPoint(dead);

  ctanalysis::MetaInfoResult metainfo = AllMetaInfo(model);
  ctanalysis::CrashPointAnalysis analysis(&model, &metainfo);
  ctanalysis::CrashPointResult defaults = analysis.Identify();
  EXPECT_EQ(defaults.points.size(), 2u);
  EXPECT_EQ(defaults.pruned_unreachable, 0);

  ctanalysis::CrashPointOptions options;
  options.prune_statically_unreachable = true;
  ctanalysis::CrashPointResult pruned = analysis.Identify(options);
  ASSERT_EQ(pruned.points.size(), 1u);
  EXPECT_EQ(pruned.points[0].location.rfind("Server.leaf", 0), 0u);
  EXPECT_EQ(pruned.pruned_unreachable, 1);
}

}  // namespace
