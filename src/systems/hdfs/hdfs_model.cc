// Static program model for mini-HDFS (types, fields, access points, logging
// statements, IO points, catalog).
#include "src/systems/hdfs/hdfs_defs.h"

#include "src/logging/statement.h"
#include "src/model/catalog.h"

namespace cthdfs {

namespace {

using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::IoPointDecl;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

HdfsArtifacts* Build() {
  auto* artifacts = new HdfsArtifacts();
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
  add_type("hdfs.protocol.DatanodeInfo");
  add_type("hdfs.protocol.DatanodeID", "hdfs.protocol.DatanodeInfo");
  add_type("hdfs.server.protocol.DatanodeRegistration", "hdfs.protocol.DatanodeInfo");
  add_type("hdfs.server.datanode.BPOfferService");
  add_type("hdfs.protocol.Block");
  add_type("hdfs.server.namenode.INodeFile");
  add_type("HashMap<DatanodeInfo,DatanodeDescriptor>", "", {"hdfs.protocol.DatanodeInfo"});
  add_type("HashMap<Block,DatanodeInfo>", "",
           {"hdfs.protocol.Block", "hdfs.protocol.DatanodeInfo"});
  add_type("HashMap<String,INodeFile>", "",
           {"java.lang.String", "hdfs.server.namenode.INodeFile"});
  add_type("hdfs.server.namenode.EditLogOutputStream", "", {}, /*closeable=*/true);
  add_type("hdfs.server.datanode.BlockReceiver", "", {}, /*closeable=*/true);

  auto add_field = [&](const std::string& clazz, const std::string& name, const std::string& type,
                       bool ctor_only = false) {
    FieldDecl field;
    field.clazz = clazz;
    field.name = name;
    field.type = type;
    field.set_only_in_constructor = ctor_only;
    model.AddField(field);
  };
  add_field("DatanodeManager", "datanodeMap", "HashMap<DatanodeInfo,DatanodeDescriptor>");
  add_field("BlockManager", "blockLocations", "HashMap<Block,DatanodeInfo>");
  add_field("FSDirectory", "inodeMap", "HashMap<String,INodeFile>");
  add_field("BPOfferService", "bpRegistration", "hdfs.server.protocol.DatanodeRegistration");
  add_field("hdfs.server.namenode.INodeFile", "name", "java.io.File");

  auto add_point = [&](const std::string& field, AccessKind kind, const std::string& clazz,
                       const std::string& method, int line, const std::string& op = "",
                       bool sanity = false) {
    AccessPointDecl point;
    point.field_id = field;
    point.kind = kind;
    point.clazz = clazz;
    point.method = method;
    point.line = line;
    point.collection_op = op;
    point.sanity_checked = sanity;
    point.executable = true;
    return model.AddAccessPoint(point);
  };
  auto& points = artifacts->points;
  points.nn_register_dn_write = add_point("DatanodeManager.datanodeMap", AccessKind::kWrite,
                                          "DatanodeManager", "registerDatanode", 152, "put");
  points.nn_pick_target_read = add_point("DatanodeManager.datanodeMap", AccessKind::kRead,
                                         "DatanodeManager", "getDatanode", 310, "get");
  points.nn_block_location_read = add_point("BlockManager.blockLocations", AccessKind::kRead,
                                            "DatanodeManager", "getDatanode", 334, "get");
  points.nn_fs_status_read = add_point("FSDirectory.inodeMap", AccessKind::kRead, "FSNamesystem",
                                       "getFsStatus", 88, "get");
  points.dn_block_report_read = add_point("BPOfferService.bpRegistration", AccessKind::kRead,
                                          "BPOfferService", "blockReport", 41);
  points.nn_journal_replay_read = add_point("BlockManager.blockLocations", AccessKind::kRead,
                                            "FSEditLogLoader", "replay", 17, "values");

  // Declared call structure. NameNode RPCs and the DataNode heartbeat timer
  // are stack roots; the two getDatanode contexts come from its two callers.
  auto add_method = [&](const std::string& clazz, const std::string& name, bool entry = false) {
    ctmodel::MethodDecl method;
    method.clazz = clazz;
    method.name = name;
    method.entry_point = entry;
    model.AddMethod(method);
  };
  auto add_call = [&](const std::string& caller, const std::string& callee,
                      ctmodel::CallKind kind = ctmodel::CallKind::kStatic) {
    model.AddCallEdge({caller, callee, kind});
  };
  add_method("DatanodeManager", "registerDatanode", /*entry=*/true);
  add_method("FSNamesystem", "startFile", /*entry=*/true);
  add_method("FSNamesystem", "getBlockLocations", /*entry=*/true);
  add_method("FSNamesystem", "getFsStatus", /*entry=*/true);
  add_method("DatanodeManager", "removeDeadDatanode", /*entry=*/true);
  add_method("FSEditLogLoader", "replay", /*entry=*/true);
  add_method("BPOfferService", "blockReport", /*entry=*/true);
  add_method("BPOfferService", "stop", /*entry=*/true);
  add_method("BlockReceiver", "receivePacket", /*entry=*/true);
  add_method("FSNamesystem", "completeFile", /*entry=*/true);
  add_method("FSNamesystem", "startActiveServices", /*entry=*/true);
  add_method("BPOfferService", "register", /*entry=*/true);
  add_method("DatanodeManager", "getDatanode");
  add_method("BlockManager", "addBlock");
  add_method("BlockManager", "blockReceived");
  add_method("FSEditLog", "logSync");
  add_call("FSNamesystem.startFile", "DatanodeManager.getDatanode");
  add_call("FSNamesystem.getBlockLocations", "DatanodeManager.getDatanode");
  // startFile allocates the first block; incremental block reports land in
  // the block manager; both namespace mutations sync the edit log.
  add_call("FSNamesystem.startFile", "BlockManager.addBlock");
  add_call("BPOfferService.blockReport", "BlockManager.blockReceived");
  add_call("FSNamesystem.startFile", "FSEditLog.logSync");
  add_call("FSNamesystem.completeFile", "FSEditLog.logSync");

  auto& registry = ctlog::StatementRegistry::Instance();
  auto& stmts = artifacts->stmts;
  auto bind = [&](int id, std::vector<ctmodel::LogArg> args) {
    LogBinding binding;
    binding.statement_id = id;
    binding.args = std::move(args);
    model.BindLog(binding);
  };
  stmts.dn_registered = registry.Register(ctlog::Level::kInfo, "DataNode from {} registered as {}",
                                          "DatanodeManager.registerDatanode");
  bind(stmts.dn_registered,
       {{"java.lang.String", ""}, {"hdfs.protocol.DatanodeInfo", "DatanodeManager.datanodeMap"}});
  stmts.block_allocated =
      registry.Register(ctlog::Level::kInfo, "Allocated block {} of file {} on datanode {}",
                        "BlockManager.addBlock");
  bind(stmts.block_allocated, {{"hdfs.protocol.Block", ""},
                               {"java.io.File", "hdfs.server.namenode.INodeFile.name"},
                               {"hdfs.protocol.DatanodeInfo", ""}});
  stmts.block_received = registry.Register(ctlog::Level::kInfo, "Received block {} from {}",
                                           "BlockManager.blockReceived");
  bind(stmts.block_received,
       {{"hdfs.protocol.Block", ""}, {"hdfs.protocol.DatanodeInfo", ""}});
  stmts.bp_registered = registry.Register(
      ctlog::Level::kInfo, "Block pool {} on datanode {} registered", "BPOfferService.register");
  bind(stmts.bp_registered, {{"hdfs.server.datanode.BPOfferService", ""},
                             {"hdfs.protocol.DatanodeInfo", ""}});
  stmts.file_complete =
      registry.Register(ctlog::Level::kInfo, "File {} is complete", "FSNamesystem.completeFile");
  bind(stmts.file_complete, {{"java.io.File", "hdfs.server.namenode.INodeFile.name"}});
  stmts.nn_active = registry.Register(ctlog::Level::kInfo, "NameNode {} transitioned to active",
                                      "FSNamesystem.startActiveServices");
  bind(stmts.nn_active, {{"hdfs.protocol.DatanodeInfo", ""}});
  stmts.dn_removed = registry.Register(ctlog::Level::kWarn, "Removing dead datanode {}",
                                       "DatanodeManager.removeDeadDatanode");
  bind(stmts.dn_removed, {{"hdfs.protocol.DatanodeInfo", ""}});

  model.AddIoMethod({"hdfs.server.namenode.EditLogOutputStream", "write"});
  model.AddIoMethod({"hdfs.server.namenode.EditLogOutputStream", "flush"});
  model.AddIoMethod({"hdfs.server.datanode.BlockReceiver", "writeBlock"});
  {
    IoPointDecl editlog;
    editlog.io_class = "hdfs.server.namenode.EditLogOutputStream";
    editlog.io_method = "write";
    editlog.callsite = "FSEditLog.logSync";
    editlog.executable = true;
    artifacts->io.nn_editlog_io = model.AddIoPoint(editlog);
    IoPointDecl block_write;
    block_write.io_class = "hdfs.server.datanode.BlockReceiver";
    block_write.io_method = "writeBlock";
    block_write.callsite = "BlockReceiver.receivePacket";
    block_write.executable = true;
    artifacts->io.dn_block_write_io = model.AddIoPoint(block_write);
  }

  ctmodel::CatalogSpec spec;
  spec.packages = {"org.apache.hadoop.hdfs.server.namenode", "org.apache.hadoop.hdfs.server.datanode",
                   "org.apache.hadoop.hdfs.protocol", "org.apache.hadoop.hdfs.server.blockmanagement",
                   "org.apache.hadoop.hdfs.qjournal"};
  spec.stems = {"Block",   "Lease",  "Snapshot", "Checkpoint", "Journal", "Storage",
                "Replica", "Decom",  "Balancer", "Quota",      "Cache",   "Xceiver"};
  spec.suffixes = {"Manager", "Impl", "Service", "Monitor", "Handler", "Util", "Context"};
  spec.num_classes = 360;
  spec.metainfo_field_types = {"hdfs.protocol.DatanodeInfo", "hdfs.protocol.Block"};
  spec.holders_per_metainfo_type = 3;
  spec.seed = 0xd5;
  ctmodel::PopulateCatalog(&model, spec);

  // Network-fault bug window: partition the DN whose id the registration
  // write resolves to, hold the cut past the 1500 ms liveness timeout
  // (expiry at ~1750 ms with the 250 ms sweep), and heal at 1900 ms so the
  // DN's next 800 ms-grid heartbeat hits removeDeadDatanode's tombstone
  // while its recovery is still in flight. The race: a DN partitioned at
  // registration is expired as dead, heals and heartbeats into the
  // DatanodeManager without re-registering.
  model.AddNetworkFaultWindow(
      {artifacts->points.nn_register_dn_write, 1900, "HDFS-15113"});

  // Workload-fuzzing grammar: RPC ops name their declared handler, node ops
  // the class whose recovery logic the fault exercises (ctlint's
  // grammar-op-unknown-target keeps both honest).
  {
    // Extra write competing with TestDFSIO for block placement.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.create-file";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "FSNamesystem.startFile";
    op.rpc_verb = "createFile";
    op.target_prefix = "namenode";
    op.args = {{"file", "/fuzz/io_data/extra_%MAG%"}, {"index", "%MAG%"}};
    op.max_magnitude = 4;
    op.weight = 2;
    op.min_time_ms = 4000;
    op.max_time_ms = 12000;
    model.AddGrammarOp(op);
  }
  {
    // Read-path location lookup against unrevalidated replicas.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.locate-blocks";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "FSNamesystem.getBlockLocations";
    op.rpc_verb = "getBlockLocations";
    op.target_prefix = "namenode";
    op.args = {{"file", "/fuzz/io_data/extra_%MAG%"}};
    op.max_magnitude = 4;
    op.weight = 1;
    op.min_time_ms = 5000;
    op.max_time_ms = 14000;
    model.AddGrammarOp(op);
  }
  {
    // Status scan over the inode table.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.fs-status";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "FSNamesystem.getFsStatus";
    op.rpc_verb = "getFsStatus";
    op.target_prefix = "namenode";
    op.weight = 2;
    op.min_time_ms = 1000;
    op.max_time_ms = 14000;
    model.AddGrammarOp(op);
  }
  {
    // Administrative decommission through the failure detector.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.decommission-dn";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "DatanodeManager.removeDeadDatanode";
    op.rpc_verb = "unregisterDatanode";
    op.target_prefix = "namenode";
    op.args = {{"dn", "%NODE%"}};
    op.arg_prefix = "dnode";
    op.weight = 2;
    op.min_time_ms = 3000;
    op.max_time_ms = 10000;
    model.AddGrammarOp(op);
  }
  {
    // Fail-stop a DN mid-write; exercises dead-node removal.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.kill-dn";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "DatanodeManager";
    op.target_prefix = "dnode";
    op.weight = 3;
    op.min_time_ms = 3000;
    op.max_time_ms = 10000;
    model.AddGrammarOp(op);
  }
  {
    // Fail-stop a NameNode; the standby promotes and replays edits.
    ctmodel::GrammarOpDecl op;
    op.name = "hdfs.kill-namenode";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "FSNamesystem";
    op.target_prefix = "namenode";
    op.weight = 1;
    op.min_time_ms = 5000;
    op.max_time_ms = 9000;
    model.AddGrammarOp(op);
  }
  return artifacts;
}

}  // namespace

const HdfsArtifacts& GetHdfsArtifacts() {
  static const HdfsArtifacts* artifacts = Build();
  return *artifacts;
}

std::string BlockId(int file, int index) {
  return "blk_107437418" + std::to_string(file) + std::to_string(index);
}

std::string FileName(int file) { return "/benchmarks/TestDFSIO/io_data/test_io_" + std::to_string(file); }

}  // namespace cthdfs
