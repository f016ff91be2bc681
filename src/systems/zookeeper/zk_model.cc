// Static program model for mini-ZooKeeper. The meta-info surface is small by
// design: node identity is an Integer (a base type the inference refuses to
// generalize), and only three non-base types end up classified (Table 10's
// ZooKeeper row: 3 types, 13 fields).
#include "src/systems/zookeeper/zk_defs.h"

#include "src/logging/statement.h"
#include "src/model/catalog.h"

namespace ctzk {

namespace {

using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::IoPointDecl;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

ZkArtifacts* Build() {
  auto* artifacts = new ZkArtifacts();
  ProgramModel& model = artifacts->model;
  ctmodel::AddBaseTypes(&model);

  auto add_type = [&](const std::string& name, std::vector<std::string> elements = {},
                      bool closeable = false) {
    TypeDecl type;
    type.name = name;
    type.element_types = std::move(elements);
    type.closeable = closeable;
    model.AddType(type);
  };
  add_type("zookeeper.server.Session");
  add_type("zookeeper.data.ZNode");
  add_type("zookeeper.server.quorum.QuorumPeer");
  add_type("HashMap<String,ZNode>", {"java.lang.String", "zookeeper.data.ZNode"});
  add_type("HashMap<Long,Session>", {"java.lang.Long", "zookeeper.server.Session"});
  add_type("zookeeper.server.persistence.TxnLog", {}, /*closeable=*/true);
  add_type("zookeeper.server.persistence.SnapShot", {}, /*closeable=*/true);

  auto add_field = [&](const std::string& clazz, const std::string& name,
                       const std::string& type, bool ctor_only = false) {
    FieldDecl field;
    field.clazz = clazz;
    field.name = name;
    field.type = type;
    field.set_only_in_constructor = ctor_only;
    model.AddField(field);
  };
  add_field("DataTree", "nodes", "HashMap<String,ZNode>");
  add_field("SessionTracker", "sessionsById", "HashMap<Long,Session>");
  add_field("QuorumPeer", "myid", "java.lang.Integer");  // node as Integer (§3.4)
  add_field("QuorumPeer", "currentLeader", "java.lang.Integer");
  add_field("zookeeper.server.Session", "owner", "java.lang.Integer", /*ctor_only=*/true);

  auto add_point = [&](const std::string& field, AccessKind kind, const std::string& clazz,
                       const std::string& method, int line, const std::string& op = "",
                       const std::string& context = "") {
    AccessPointDecl point;
    point.field_id = field;
    point.kind = kind;
    point.clazz = clazz;
    point.method = method;
    point.line = line;
    point.collection_op = op;
    point.context_method = context;
    point.executable = true;
    return model.AddAccessPoint(point);
  };
  auto& points = artifacts->points;
  points.leader_session_read = add_point("SessionTracker.sessionsById", AccessKind::kRead,
                                         "PrepRequestProcessor", "pRequest", 120, "get");
  points.znode_create_write =
      add_point("DataTree.nodes", AccessKind::kWrite, "DataTree", "createNode", 310, "put");
  points.znode_get_read =
      add_point("DataTree.nodes", AccessKind::kRead, "DataTree", "getData", 402, "get");
  points.quorum_member_write = add_point("QuorumPeer.currentLeader", AccessKind::kWrite,
                                         "QuorumPeer", "updateElectionVote", 88);
  // The leader reference is checked while pRequest decides whether to
  // forward; the follower processor's own frame is not pushed yet.
  points.leader_ref_read = add_point("QuorumPeer.currentLeader", AccessKind::kRead,
                                     "FollowerRequestProcessor", "processRequest", 71, "",
                                     "PrepRequestProcessor.pRequest");

  // Declared call structure. The request pipeline forwards createNode from
  // both the prep processor (leader path) and the sync thread (replay path).
  auto add_method = [&](const std::string& clazz, const std::string& name, bool entry = false) {
    ctmodel::MethodDecl method;
    method.clazz = clazz;
    method.name = name;
    method.entry_point = entry;
    model.AddMethod(method);
  };
  add_method("PrepRequestProcessor", "pRequest", /*entry=*/true);
  add_method("SyncRequestProcessor", "run", /*entry=*/true);
  add_method("DataTree", "getData", /*entry=*/true);
  add_method("QuorumPeer", "updateElectionVote", /*entry=*/true);
  add_method("QuorumPeer", "start", /*entry=*/true);
  add_method("DataTree", "createNode");
  add_method("FollowerRequestProcessor", "processRequest");
  add_method("QuorumPeer", "lead");
  add_method("ZooKeeperServer", "loadData");
  add_method("SessionTracker", "createSession");
  add_method("SyncRequestProcessor", "snapshot");
  add_method("FinalRequestProcessor", "processRequest", /*entry=*/true);
  // The peer main thread leads after election and replays the snapshot
  // before serving; sessions are minted on the request path; the sync
  // thread rolls snapshots between txn batches.
  model.AddCallEdge({"QuorumPeer.start", "QuorumPeer.lead", ctmodel::CallKind::kStatic});
  model.AddCallEdge({"QuorumPeer.lead", "ZooKeeperServer.loadData",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"PrepRequestProcessor.pRequest", "SessionTracker.createSession",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"SyncRequestProcessor.run", "SyncRequestProcessor.snapshot",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"PrepRequestProcessor.pRequest", "DataTree.createNode",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"SyncRequestProcessor.run", "DataTree.createNode",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"PrepRequestProcessor.pRequest", "FollowerRequestProcessor.processRequest",
                     ctmodel::CallKind::kStatic});
  // sync routes the read through the processor chain before touching the tree.
  model.AddCallEdge({"FinalRequestProcessor.processRequest", "DataTree.getData",
                     ctmodel::CallKind::kStatic});

  auto& registry = ctlog::StatementRegistry::Instance();
  auto& stmts = artifacts->stmts;
  auto bind = [&](int id, std::vector<ctmodel::LogArg> args) {
    LogBinding binding;
    binding.statement_id = id;
    binding.args = std::move(args);
    model.BindLog(binding);
  };
  stmts.peer_up = registry.Register(ctlog::Level::kInfo, "Peer {} joined the quorum with myid {}",
                                    "QuorumPeer.start");
  bind(stmts.peer_up, {{"zookeeper.server.quorum.QuorumPeer", ""},
                       {"java.lang.Integer", "QuorumPeer.myid"}});
  stmts.leading =
      registry.Register(ctlog::Level::kInfo, "Peer {} LEADING the quorum", "QuorumPeer.lead");
  bind(stmts.leading, {{"zookeeper.server.quorum.QuorumPeer", ""}});
  stmts.session_opened = registry.Register(ctlog::Level::kInfo, "Session {} established on server {}",
                                           "SessionTracker.createSession");
  bind(stmts.session_opened, {{"zookeeper.server.Session", ""},
                              {"zookeeper.server.quorum.QuorumPeer", ""}});
  stmts.znode_created = registry.Register(ctlog::Level::kInfo, "Created znode {} on server {}",
                                          "DataTree.createNode");
  bind(stmts.znode_created,
       {{"zookeeper.data.ZNode", ""}, {"zookeeper.server.quorum.QuorumPeer", ""}});
  stmts.recovering = registry.Register(ctlog::Level::kInfo, "Recovering from snapshot with {} znodes",
                                       "ZooKeeperServer.loadData");
  bind(stmts.recovering, {{"java.lang.Integer", ""}});

  model.AddIoMethod({"zookeeper.server.persistence.TxnLog", "write"});
  model.AddIoMethod({"zookeeper.server.persistence.TxnLog", "flush"});
  model.AddIoMethod({"zookeeper.server.persistence.SnapShot", "write"});
  {
    IoPointDecl txn;
    txn.io_class = "zookeeper.server.persistence.TxnLog";
    txn.io_method = "write";
    txn.callsite = "SyncRequestProcessor.run";
    txn.executable = true;
    artifacts->io.txnlog_append_io = model.AddIoPoint(txn);
    IoPointDecl snap;
    snap.io_class = "zookeeper.server.persistence.SnapShot";
    snap.io_method = "write";
    snap.callsite = "SyncRequestProcessor.snapshot";
    snap.executable = true;
    artifacts->io.snapshot_write_io = model.AddIoPoint(snap);
  }

  ctmodel::CatalogSpec spec;
  spec.packages = {"org.apache.zookeeper.server", "org.apache.zookeeper.server.quorum",
                   "org.apache.zookeeper.client"};
  spec.stems = {"Election", "Watch", "Txn", "Request", "Learner", "Observer"};
  spec.suffixes = {"Manager", "Impl", "Processor", "Handler", "Util"};
  spec.num_classes = 60;
  spec.metainfo_field_types = {"zookeeper.data.ZNode"};
  spec.holders_per_metainfo_type = 2;
  spec.seed = 0x2b;
  ctmodel::PopulateCatalog(&model, spec);

  // Network-fault window: partition the leader resolved from the session
  // read long enough for the quorum to expire it (fd 1500 ms + sweep), then
  // heal — its resumed heartbeats race the peers' election view
  // (ZOOKEEPER-2212 class). The race: the leader is partitioned across its own
  // expiry, and its heartbeats resume into peers that already voted it out.
  model.AddNetworkFaultWindow(
      {artifacts->points.leader_session_read, 1900, "ZOOKEEPER-2212"});

  // Workload-fuzzing grammar: RPC ops name their declared handler, node ops
  // the class whose recovery logic the fault exercises (ctlint's
  // grammar-op-unknown-target keeps both honest).
  {
    // Create sent to an arbitrary peer; followers forward to the leader.
    ctmodel::GrammarOpDecl op;
    op.name = "zk.create";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "PrepRequestProcessor.pRequest";
    op.rpc_verb = "create";
    op.target_prefix = "zkpeer";
    op.args = {{"path", "/fuzz/node-%MAG%"}, {"data", "fz"}};
    op.max_magnitude = 4;
    op.weight = 3;
    op.min_time_ms = 1000;
    op.max_time_ms = 8000;
    model.AddGrammarOp(op);
  }
  {
    // Read against a replica that may not have replicated yet.
    ctmodel::GrammarOpDecl op;
    op.name = "zk.get";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "DataTree.getData";
    op.rpc_verb = "get";
    op.target_prefix = "zkpeer";
    op.args = {{"path", "/fuzz/node-%MAG%"}};
    op.max_magnitude = 4;
    op.weight = 2;
    op.min_time_ms = 1500;
    op.max_time_ms = 9000;
    model.AddGrammarOp(op);
  }
  {
    // Sync'd read through the full request-processor chain.
    ctmodel::GrammarOpDecl op;
    op.name = "zk.sync-read";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "FinalRequestProcessor.processRequest";
    op.rpc_verb = "sync";
    op.target_prefix = "zkpeer";
    op.args = {{"path", "/fuzz/node-%MAG%"}};
    op.max_magnitude = 4;
    op.weight = 2;
    op.min_time_ms = 1500;
    op.max_time_ms = 9000;
    model.AddGrammarOp(op);
  }
  {
    // Fail-stop a peer; leader churn when the ordinal hits the leader.
    ctmodel::GrammarOpDecl op;
    op.name = "zk.kill-peer";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "QuorumPeer";
    op.target_prefix = "zkpeer";
    op.weight = 3;
    op.min_time_ms = 1500;
    op.max_time_ms = 7000;
    model.AddGrammarOp(op);
  }
  {
    // Graceful peer stop; heartbeats cease without a crash record.
    ctmodel::GrammarOpDecl op;
    op.name = "zk.stop-peer";
    op.kind = ctmodel::GrammarOpKind::kShutdown;
    op.target_class = "QuorumPeer";
    op.target_prefix = "zkpeer";
    op.weight = 1;
    op.min_time_ms = 1500;
    op.max_time_ms = 7000;
    model.AddGrammarOp(op);
  }
  return artifacts;
}

}  // namespace

const ZkArtifacts& GetZkArtifacts() {
  static const ZkArtifacts* artifacts = Build();
  return *artifacts;
}

std::string ZnodePath(int index) { return "/smoketest/node-" + std::to_string(index); }

std::string SessionId(int index) { return "0x1663e7ab" + std::to_string(4000 + index); }

}  // namespace ctzk
