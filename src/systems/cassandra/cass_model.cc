// Static program model for mini-Cassandra. Table 10's Cassandra row shows a
// single meta-info type (the endpoint address) — the gossip-centric design
// funnels all node references through InetAddressAndPort.
#include "src/systems/cassandra/cass_defs.h"

#include "src/logging/statement.h"
#include "src/model/catalog.h"

namespace ctcass {

namespace {

using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::IoPointDecl;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

CassArtifacts* Build() {
  auto* artifacts = new CassArtifacts();
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
  add_type("cassandra.locator.InetAddressAndPort");
  add_type("List<InetAddressAndPort>", {"cassandra.locator.InetAddressAndPort"});
  add_type("HashMap<InetAddressAndPort,EndpointState>",
           {"cassandra.locator.InetAddressAndPort"});
  add_type("HashMap<InetAddressAndPort,Hint>", {"cassandra.locator.InetAddressAndPort"});
  add_type("cassandra.db.commitlog.CommitLogSegment", {}, /*closeable=*/true);

  auto add_field = [&](const std::string& clazz, const std::string& name,
                       const std::string& type) {
    FieldDecl field;
    field.clazz = clazz;
    field.name = name;
    field.type = type;
    model.AddField(field);
  };
  add_field("TokenMetadata", "ring", "List<InetAddressAndPort>");
  add_field("Gossiper", "endpointStateMap", "HashMap<InetAddressAndPort,EndpointState>");
  add_field("HintsService", "hints", "HashMap<InetAddressAndPort,Hint>");

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
  points.coordinator_ring_read = add_point("TokenMetadata.ring", AccessKind::kRead, "StorageProxy",
                                           "performWrite", 210, "get");
  points.gossip_state_write = add_point("Gossiper.endpointStateMap", AccessKind::kWrite,
                                        "Gossiper", "applyStateLocally", 77, "put");
  points.hint_store_write =
      add_point("HintsService.hints", AccessKind::kWrite, "HintsService", "write", 41, "put");
  points.read_path_read = add_point("TokenMetadata.ring", AccessKind::kRead, "StorageProxy",
                                    "readRegular", 330, "get", /*sanity=*/true);

  // Declared call structure. Writes fan out from the coordinator proxy; the
  // read path is a declared RPC entry the write-only workload never drives,
  // so its ring read is enumerable statically but never profiled.
  auto add_method = [&](const std::string& clazz, const std::string& name, bool entry = false) {
    ctmodel::MethodDecl method;
    method.clazz = clazz;
    method.name = name;
    method.entry_point = entry;
    model.AddMethod(method);
  };
  add_method("StorageProxy", "performWrite", /*entry=*/true);
  add_method("StorageProxy", "readRegular", /*entry=*/true);
  add_method("Gossiper", "applyStateLocally", /*entry=*/true);
  add_method("Gossiper", "markDead", /*entry=*/true);
  add_method("Keyspace", "apply");
  add_method("HintsService", "write");
  add_method("StorageService", "handleStateNormal");
  add_method("Gossiper", "markAlive");
  // Gossip state application dispatches NORMAL transitions to the storage
  // service and flips endpoints alive on heartbeat echoes.
  model.AddCallEdge({"Gossiper.applyStateLocally", "StorageService.handleStateNormal",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"Gossiper.applyStateLocally", "Gossiper.markAlive",
                     ctmodel::CallKind::kStatic});
  model.AddCallEdge({"StorageProxy.performWrite", "Keyspace.apply", ctmodel::CallKind::kStatic});
  model.AddCallEdge({"StorageProxy.performWrite", "HintsService.write",
                     ctmodel::CallKind::kStatic});

  auto& registry = ctlog::StatementRegistry::Instance();
  auto& stmts = artifacts->stmts;
  auto bind = [&](int id, std::vector<ctmodel::LogArg> args) {
    LogBinding binding;
    binding.statement_id = id;
    binding.args = std::move(args);
    model.BindLog(binding);
  };
  stmts.node_joined = registry.Register(ctlog::Level::kInfo, "Node {} is now part of the cluster",
                                        "StorageService.handleStateNormal");
  bind(stmts.node_joined, {{"cassandra.locator.InetAddressAndPort", "TokenMetadata.ring"}});
  stmts.node_up =
      registry.Register(ctlog::Level::kInfo, "InetAddress {} is now UP", "Gossiper.markAlive");
  bind(stmts.node_up, {{"cassandra.locator.InetAddressAndPort", ""}});
  stmts.node_down =
      registry.Register(ctlog::Level::kWarn, "InetAddress {} is now DOWN", "Gossiper.markDead");
  bind(stmts.node_down, {{"cassandra.locator.InetAddressAndPort", ""}});
  stmts.hint_written = registry.Register(ctlog::Level::kInfo, "Writing hint for endpoint {}",
                                         "HintsService.write");
  bind(stmts.hint_written, {{"cassandra.locator.InetAddressAndPort", ""}});
  stmts.key_written = registry.Register(ctlog::Level::kInfo, "Key {} written to endpoint {}",
                                        "StorageProxy.performWrite");
  bind(stmts.key_written,
       {{"java.lang.String", ""}, {"cassandra.locator.InetAddressAndPort", ""}});

  model.AddIoMethod({"cassandra.db.commitlog.CommitLogSegment", "write"});
  model.AddIoMethod({"cassandra.db.commitlog.CommitLogSegment", "flush"});
  {
    IoPointDecl commitlog;
    commitlog.io_class = "cassandra.db.commitlog.CommitLogSegment";
    commitlog.io_method = "write";
    commitlog.callsite = "Keyspace.apply";
    commitlog.executable = true;
    artifacts->io.commitlog_append_io = model.AddIoPoint(commitlog);
  }

  ctmodel::CatalogSpec spec;
  spec.packages = {"org.apache.cassandra.db", "org.apache.cassandra.gms",
                   "org.apache.cassandra.streaming", "org.apache.cassandra.repair"};
  spec.stems = {"Compaction", "Memtable", "SSTable", "Stream", "Repair", "Batch", "View"};
  spec.suffixes = {"Manager", "Impl", "Service", "Task", "Util"};
  spec.num_classes = 180;
  spec.metainfo_field_types = {"cassandra.locator.InetAddressAndPort"};
  spec.holders_per_metainfo_type = 5;
  spec.seed = 0xca;
  ctmodel::PopulateCatalog(&model, spec);

  // Network-fault window: partition the gossiping peer across markDead
  // (gossip fd 1500 ms + sweep), then heal — its resumed gossip is applied
  // without the restart/generation check (the CASSANDRA-15158 class of
  // gossip restart races). The race: a peer partitioned across its own
  // markDead has its re-announced state applied without a generation check.
  model.AddNetworkFaultWindow(
      {artifacts->points.gossip_state_write, 1900, "CA-15158"});

  // Workload-fuzzing grammar: RPC ops name their declared handler, node ops
  // the class whose recovery logic the fault exercises (ctlint's
  // grammar-op-unknown-target keeps both honest).
  {
    // Extra write through an arbitrary coordinator.
    ctmodel::GrammarOpDecl op;
    op.name = "cass.mutate";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "StorageProxy.performWrite";
    op.rpc_verb = "mutate";
    op.target_prefix = "cass";
    op.args = {{"key", "fuzz%MAG%"}, {"val", "fz"}};
    op.max_magnitude = 9;
    op.weight = 3;
    op.min_time_ms = 3500;
    op.max_time_ms = 8000;
    model.AddGrammarOp(op);
  }
  {
    // Blocking write whose endpoint dispatch straddles a gossip death.
    ctmodel::GrammarOpDecl op;
    op.name = "cass.hinted-mutate";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "StorageProxy.performWrite";
    op.rpc_verb = "hintedMutate";
    op.target_prefix = "cass";
    op.args = {{"key", "fuzz%MAG%"}, {"val", "fz"}};
    op.max_magnitude = 9;
    op.weight = 3;
    op.min_time_ms = 1500;
    op.max_time_ms = 5000;
    model.AddGrammarOp(op);
  }
  {
    // Fail-stop a node; gossip marks it dead and hints accumulate.
    ctmodel::GrammarOpDecl op;
    op.name = "cass.kill-node";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "Gossiper";
    op.target_prefix = "cass";
    op.weight = 3;
    op.min_time_ms = 1500;
    op.max_time_ms = 3500;
    model.AddGrammarOp(op);
  }
  {
    // Graceful leave announcing itself through gossip.
    ctmodel::GrammarOpDecl op;
    op.name = "cass.decommission";
    op.kind = ctmodel::GrammarOpKind::kShutdown;
    op.target_class = "Gossiper";
    op.target_prefix = "cass";
    op.weight = 2;
    op.min_time_ms = 2000;
    op.max_time_ms = 9000;
    model.AddGrammarOp(op);
  }
  return artifacts;
}

}  // namespace

const CassArtifacts& GetCassArtifacts() {
  static const CassArtifacts* artifacts = Build();
  return *artifacts;
}

std::string RowKey(int index) { return "user" + std::to_string(100000 + index); }

}  // namespace ctcass
