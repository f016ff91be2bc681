// Static program model for mini-HBase.
#include "src/systems/hbase/hbase_defs.h"

#include "src/logging/statement.h"
#include "src/model/catalog.h"

namespace cthbase {

namespace {

using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::IoPointDecl;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

HBaseArtifacts* Build() {
  auto* artifacts = new HBaseArtifacts();
  ProgramModel& model = artifacts->model;
  ctmodel::AddBaseTypes(&model);

  auto add_type = [&](const std::string& name, const std::string& super = "",
                      std::vector<std::string> elements = {}, bool closeable = false) {
    TypeDecl type;
    type.name = name;
    type.supertype = super;
    type.element_types = std::move(elements);
    type.closeable = closeable;
    model.AddType(type);
  };
  // The ServerName family of Table 1: HRegionServer referenced through
  // several convertible types.
  add_type("hbase.ServerName");
  add_type("hbase.HServerInfo", "hbase.ServerName");
  add_type("hbase.HServerAddress", "hbase.ServerName");
  add_type("hbase.client.RegionInfo");
  add_type("hbase.HRegion");
  add_type("hbase.zookeeper.ZNode");
  add_type("hbase.regionserver.MetricsRegionServer");
  add_type("Set<ServerName>", "", {"hbase.ServerName"});
  add_type("HashMap<RegionInfo,RegionState>", "", {"hbase.client.RegionInfo"});
  add_type("HashMap<RegionInfo,HRegion>", "",
           {"hbase.client.RegionInfo", "hbase.HRegion"});
  add_type("hbase.regionserver.wal.WALWriter", "", {}, /*closeable=*/true);

  auto add_field = [&](const std::string& clazz, const std::string& name, const std::string& type,
                       bool ctor_only = false) {
    FieldDecl field;
    field.clazz = clazz;
    field.name = name;
    field.type = type;
    field.set_only_in_constructor = ctor_only;
    model.AddField(field);
  };
  add_field("ServerManager", "onlineServers", "Set<ServerName>");
  add_field("HMaster", "metaServerCandidate", "hbase.ServerName");
  add_field("AssignmentManager", "regionStates", "HashMap<RegionInfo,RegionState>");
  add_field("HRegionServer", "onlineRegions", "HashMap<RegionInfo,HRegion>");
  add_field("HRegionServer", "metricsRegionServer", "hbase.regionserver.MetricsRegionServer");
  add_field("ReplicationZKWatcher", "peersZNode", "hbase.zookeeper.ZNode");
  add_field("hbase.HRegion", "regionInfo", "hbase.client.RegionInfo", /*ctor_only=*/true);
  // MetricsRegionServer is indexed by the server it measures; the
  // constructor-only field makes it a meta-info type through Definition 2's
  // containing-class rule (it is the meta-info of HBASE-21740/22023).
  add_field("hbase.regionserver.MetricsRegionServer", "serverName", "hbase.ServerName",
            /*ctor_only=*/true);

  auto add_point = [&](const std::string& field, AccessKind kind, const std::string& clazz,
                       const std::string& method, int line, const std::string& op = "") {
    AccessPointDecl point;
    point.field_id = field;
    point.kind = kind;
    point.clazz = clazz;
    point.method = method;
    point.line = line;
    point.collection_op = op;
    point.executable = true;
    return model.AddAccessPoint(point);
  };
  auto& points = artifacts->points;
  points.master_online_write = add_point("ServerManager.onlineServers", AccessKind::kWrite,
                                         "ServerManager", "regionServerReport", 204, "add");
  points.master_activate_read = add_point("HMaster.metaServerCandidate", AccessKind::kRead,
                                          "HMaster", "finishActiveMasterInitialization", 915);
  points.master_balancer_read = add_point("AssignmentManager.regionStates", AccessKind::kRead,
                                          "LoadBalancer", "balanceCluster", 143, "values");
  points.master_status_read = add_point("ServerManager.onlineServers", AccessKind::kRead,
                                        "MasterRpcServices", "getClusterStatus", 61, "contain");
  points.master_znode_read = add_point("ReplicationZKWatcher.peersZNode", AccessKind::kRead,
                                       "ReplicationZKWatcher", "refreshPeers", 33);
  points.rs_metrics1_write = add_point("HRegionServer.metricsRegionServer", AccessKind::kWrite,
                                       "HRegionServer", "initializeMetrics", 402);
  points.rs_metrics2_write = add_point("HRegionServer.metricsRegionServer", AccessKind::kWrite,
                                       "MetricsRegionServerWrapperImpl", "init", 58);
  points.rs_open_region_write = add_point("HRegionServer.onlineRegions", AccessKind::kWrite,
                                          "HRegion", "openRegion", 710, "put");
  points.rs_open_rebalance_write = add_point("HRegionServer.onlineRegions", AccessKind::kWrite,
                                             "HRegion", "openRegionRebalance", 733, "put");

  // Declared call structure. Master RPCs, the active-master bootstrap
  // procedure, chores and ZK watchers all start a fresh stack; the only
  // nested frame the workload produces is the rebalance path reopening a
  // region from within openRegion.
  auto add_method = [&](const std::string& clazz, const std::string& name, bool entry = false) {
    ctmodel::MethodDecl method;
    method.clazz = clazz;
    method.name = name;
    method.entry_point = entry;
    model.AddMethod(method);
  };
  add_method("ServerManager", "regionServerReport", /*entry=*/true);
  add_method("MasterRpcServices", "getClusterStatus", /*entry=*/true);
  add_method("HMaster", "finishActiveMasterInitialization", /*entry=*/true);
  add_method("ServerCrashProcedure", "execute", /*entry=*/true);
  add_method("LoadBalancer", "balanceCluster", /*entry=*/true);
  add_method("ReplicationZKWatcher", "refreshPeers", /*entry=*/true);
  add_method("HRegionServer", "initializeMetrics", /*entry=*/true);
  add_method("MetricsRegionServerWrapperImpl", "init", /*entry=*/true);
  add_method("HRegion", "openRegion", /*entry=*/true);
  add_method("HRegion", "doMiniBatchMutate", /*entry=*/true);
  add_method("ZKWatcher", "createEphemeral", /*entry=*/true);
  add_method("ServerManager", "expireServer", /*entry=*/true);
  add_method("HRegion", "openRegionRebalance");
  add_method("AssignmentManager", "assign");
  add_method("AssignmentManager", "move");
  add_method("MasterRpcServices", "balance", /*entry=*/true);
  model.AddCallEdge({"HRegion.openRegion", "HRegion.openRegionRebalance",
                     ctmodel::CallKind::kStatic});
  // Assignments run inside the bootstrap and crash procedures; moves come
  // from the balancer chore.
  model.AddCallEdge({"HMaster.finishActiveMasterInitialization", "AssignmentManager.assign",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"ServerCrashProcedure.execute", "AssignmentManager.assign",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"LoadBalancer.balanceCluster", "AssignmentManager.move",
                     ctmodel::CallKind::kStatic});
  // The admin RPC drives the same balancer scan off-schedule.
  model.AddCallEdge({"MasterRpcServices.balance", "LoadBalancer.balanceCluster",
                     ctmodel::CallKind::kStatic});

  auto& registry = ctlog::StatementRegistry::Instance();
  auto& stmts = artifacts->stmts;
  auto bind = [&](int id, std::vector<ctmodel::LogArg> args) {
    LogBinding binding;
    binding.statement_id = id;
    binding.args = std::move(args);
    model.BindLog(binding);
  };
  stmts.rs_reported = registry.Register(ctlog::Level::kInfo, "RegionServer {} reported for duty",
                                        "ServerManager.regionServerReport");
  bind(stmts.rs_reported, {{"hbase.ServerName", "ServerManager.onlineServers"}});
  stmts.znode_created =
      registry.Register(ctlog::Level::kInfo, "RegionServer ephemeral znode {} created by {}",
                        "ZKWatcher.createEphemeral");
  bind(stmts.znode_created,
       {{"hbase.zookeeper.ZNode", ""}, {"hbase.ServerName", ""}});
  stmts.master_active = registry.Register(ctlog::Level::kInfo, "Master {} is now active, meta on {}",
                                          "HMaster.finishActiveMasterInitialization");
  bind(stmts.master_active, {{"hbase.ServerName", ""}, {"hbase.ServerName", ""}});
  stmts.region_assigned = registry.Register(ctlog::Level::kInfo, "Region {} assigned to {}",
                                            "AssignmentManager.assign");
  bind(stmts.region_assigned, {{"hbase.client.RegionInfo", ""}, {"hbase.ServerName", ""}});
  stmts.region_moving = registry.Register(ctlog::Level::kInfo, "Region {} moving to {}",
                                          "AssignmentManager.move");
  bind(stmts.region_moving, {{"hbase.client.RegionInfo", ""}, {"hbase.ServerName", ""}});
  stmts.rs_expired = registry.Register(ctlog::Level::kWarn, "RegionServer {} session expired",
                                       "ServerManager.expireServer");
  bind(stmts.rs_expired, {{"hbase.ServerName", ""}});
  stmts.region_opened = registry.Register(ctlog::Level::kInfo, "Region {} opened on {}",
                                          "HRegion.openRegion");
  bind(stmts.region_opened, {{"hbase.client.RegionInfo", ""}, {"hbase.ServerName", ""}});

  model.AddIoMethod({"hbase.regionserver.wal.WALWriter", "write"});
  model.AddIoMethod({"hbase.regionserver.wal.WALWriter", "close"});
  {
    IoPointDecl wal;
    wal.io_class = "hbase.regionserver.wal.WALWriter";
    wal.io_method = "write";
    wal.callsite = "HRegion.doMiniBatchMutate";
    wal.executable = true;
    artifacts->io.rs_wal_append_io = model.AddIoPoint(wal);
  }

  ctmodel::CatalogSpec spec;
  spec.packages = {"org.apache.hadoop.hbase.master", "org.apache.hadoop.hbase.regionserver",
                   "org.apache.hadoop.hbase.client", "org.apache.hadoop.hbase.zookeeper",
                   "org.apache.hadoop.hbase.replication"};
  spec.stems = {"Region",  "Store",  "Compaction", "Flush",  "Assignment", "Procedure",
                "Balance", "Quota",  "Snapshot",   "Backup", "Coprocessor"};
  spec.suffixes = {"Manager", "Impl", "Service", "Handler", "Chore", "Util", "Tracker"};
  spec.num_classes = 300;
  spec.metainfo_field_types = {"hbase.ServerName", "hbase.client.RegionInfo"};
  spec.holders_per_metainfo_type = 4;
  spec.seed = 0xb5;
  ctmodel::PopulateCatalog(&model, spec);

  // Network-fault bug window. The balancer scan is the anchor because it is
  // the earliest read whose value resolves to a region server *after* that
  // server holds a ZK session (rs_zk_register_ms = 3600 ms): the partition
  // must cut an already-tracked session for the expiry sweep to tombstone
  // it. 2500 ms covers the 2000 ms session timeout + 300 ms sweep. The race:
  // an RS partitioned under the balancer scan has its session expired, heals
  // and heartbeats into the quorum without reconnecting.
  model.AddNetworkFaultWindow(
      {artifacts->points.master_balancer_read, 2500, "HBASE-22862"});

  // Workload-fuzzing grammar: RPC ops name their declared handler, node ops
  // the class whose recovery logic the fault exercises (ctlint's
  // grammar-op-unknown-target keeps both honest).
  {
    // Status scan racing online-set mutations.
    ctmodel::GrammarOpDecl op;
    op.name = "hbase.cluster-status";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "MasterRpcServices.getClusterStatus";
    op.rpc_verb = "clusterStatus";
    op.target_prefix = "hmaster";
    op.weight = 2;
    op.min_time_ms = 2000;
    op.max_time_ms = 20000;
    model.AddGrammarOp(op);
  }
  {
    // Forced session expiry: crash procedure against a live RS.
    ctmodel::GrammarOpDecl op;
    op.name = "hbase.expire-rs";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "ServerCrashProcedure.execute";
    op.rpc_verb = "rsExpired";
    op.target_prefix = "hmaster";
    op.args = {{"rs", "%NODE%"}};
    op.arg_prefix = "rserver";
    op.weight = 2;
    op.min_time_ms = 4000;
    op.max_time_ms = 18000;
    model.AddGrammarOp(op);
  }
  {
    // Off-schedule balancer scan; races server-crash recovery.
    ctmodel::GrammarOpDecl op;
    op.name = "hbase.force-balance";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "MasterRpcServices.balance";
    op.rpc_verb = "balance";
    op.target_prefix = "hmaster";
    op.weight = 2;
    op.min_time_ms = 3000;
    op.max_time_ms = 18000;
    model.AddGrammarOp(op);
  }
  {
    // Fail-stop an RS; regions reassign via the crash procedure.
    ctmodel::GrammarOpDecl op;
    op.name = "hbase.kill-rs";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "ServerCrashProcedure";
    op.target_prefix = "rserver";
    op.weight = 3;
    op.min_time_ms = 4000;
    op.max_time_ms = 18000;
    model.AddGrammarOp(op);
  }
  {
    // Graceful RS stop closing its ZK session first.
    ctmodel::GrammarOpDecl op;
    op.name = "hbase.stop-rs";
    op.kind = ctmodel::GrammarOpKind::kShutdown;
    op.target_class = "ServerCrashProcedure";
    op.target_prefix = "rserver";
    op.weight = 2;
    op.min_time_ms = 4000;
    op.max_time_ms = 18000;
    model.AddGrammarOp(op);
  }
  return artifacts;
}

}  // namespace

const HBaseArtifacts& GetHBaseArtifacts() {
  static const HBaseArtifacts* artifacts = Build();
  return *artifacts;
}

std::string RegionName(int index) {
  return "usertable,row" + std::to_string(index * 250000) + ",1652417.region_" +
         std::to_string(index);
}

}  // namespace cthbase
