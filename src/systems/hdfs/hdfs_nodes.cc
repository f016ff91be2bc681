#include "src/systems/hdfs/hdfs_nodes.h"

#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace cthdfs {

using ctsim::Message;
using ctsim::SimException;

// How long a removal's recovery actions stay in flight — the width of the
// seeded message-race window. A stale heartbeat landing inside it hits the
// race; a later one takes the benign resync path. Sub-second-scale on
// purpose: the paper's observation is that recovery windows are narrow,
// which is why blind fault injection rarely lands in them.
constexpr ctsim::Time kRemovalRaceWindowMs = 1200;

// --- NameNode ---------------------------------------------------------------

NameNode::NameNode(ctsim::Cluster* cluster, std::string id, std::string peer, bool active,
                   const HdfsArtifacts* artifacts, const HdfsConfig* config, Journal* journal)
    : Node(cluster, std::move(id)),
      peer_(std::move(peer)),
      active_(active),
      artifacts_(artifacts),
      config_(config),
      journal_(journal) {
  dn_fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->fd_timeout_ms, config_->fd_sweep_ms,
      [this](const std::string& dn) { HandleDatanodeLost(dn); });
  peer_fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->fd_timeout_ms, config_->fd_sweep_ms,
      [this](const std::string&) { Promote(); });

  Handle("registerDatanode", [this](const Message& m) { RegisterDatanode(m); });
  Handle("dnHeartbeat", [this](const Message& m) { DnHeartbeat(m); });
  Handle("unregisterDatanode", [this](const Message& m) { dn_fd_->NotifyLeft(m.Arg("dn")); });
  Handle("createFile", [this](const Message& m) { CreateFile(m); });
  Handle("getBlockLocations", [this](const Message& m) { GetBlockLocations(m); });
  Handle("getFsStatus", [this](const Message& m) { GetFsStatus(m); });
  Handle("nnHeartbeat", [this](const Message& m) { peer_fd_->Heartbeat(m.from); });
  Handle("blockReceived", [this](const Message& m) {
    log().Log(artifacts_->stmts.block_received, {m.Arg("blk"), m.Arg("dn")});
    auto it = files_.find(m.Arg("file"));
    if (it == files_.end() || it->second.pending <= 0) {
      return;
    }
    if (--it->second.pending == 0) {
      log().Log(artifacts_->stmts.file_complete, {m.Arg("file")});
      Send(it->second.client, "fileComplete", {{"file", m.Arg("file")}});
    }
  });
}

void NameNode::OnStart() {
  dn_fd_->Start();
  if (active_) {
    Every(config_->nn_peer_heartbeat_ms, [this] {
      if (active_) {
        Send(peer_, "nnHeartbeat", {});
      }
    });
  } else {
    peer_fd_->Start();
    peer_fd_->Heartbeat(peer_);
  }
}

void NameNode::OnHandlerException(const std::string& context, const SimException& e) {
  // Request-path failures are returned to the client; the namesystem itself
  // survives (the HDFS-14216 symptom is a failed request, not a crash).
  (void)context;
  (void)e;
}

void NameNode::RegisterDatanode(const Message& m) {
  CT_FRAME("DatanodeManager.registerDatanode");
  if (!active_) {
    return;
  }
  const std::string dn = m.Arg("dn");
  datanodes_[dn] = true;
  CT_POST_WRITE(artifacts_->points.nn_register_dn_write, dn);
  log().Log(artifacts_->stmts.dn_registered, {m.Arg("host"), dn});
  dn_fd_->Heartbeat(dn);
  // Registration ack is delayed by namesystem-lock latency: the window in
  // which a DataNode stopped early has never completed its block-pool
  // registration (HDFS-14372).
  After(config_->register_ack_delay_ms,
        [this, dn] { Send(dn, "registerAck", {{"bp", "BP-1396243"}}); });
}

void NameNode::CheckDatanodeLive(const std::string& dn, int point_id) {
  CT_FRAME("DatanodeManager.getDatanode");
  CT_PRE_READ(point_id, dn);
  if (datanodes_.find(dn) == datanodes_.end()) {
    throw SimException("NullPointerException", "Request fails due to removed node " + dn);
  }
}

void NameNode::CreateFile(const Message& m) {
  CT_FRAME("FSNamesystem.startFile");
  if (!active_) {
    return;
  }
  const std::string file = m.Arg("file");
  if (datanodes_.size() < static_cast<size_t>(config_->replication)) {
    return;  // Not enough datanodes yet; the client retries.
  }
  FileRecord record;
  record.client = m.from;
  std::vector<std::string> dns;
  for (const auto& [dn, alive] : datanodes_) {
    dns.push_back(dn);
  }
  for (int b = 0; b < config_->blocks_per_file; ++b) {
    std::string blk = BlockId(std::stoi(m.Arg("index")), b);
    // Edit-log record: torn if the active NameNode dies inside the write.
    journal_->mid_write = true;
    CT_IO_BEGIN(artifacts_->io.nn_editlog_io);
    CT_IO_END(artifacts_->io.nn_editlog_io);
    journal_->records += 1;
    journal_->mid_write = false;

    // Block placement: round-robin replicas, read without revalidation —
    // the HDFS-14216 write-path window.
    std::vector<std::string> targets;
    for (int r = 0; r < config_->replication; ++r) {
      const std::string dn = dns[(placement_rr_ + r) % dns.size()];
      CheckDatanodeLive(dn, artifacts_->points.nn_pick_target_read);
      targets.push_back(dn);
      log().Log(artifacts_->stmts.block_allocated, {blk, file, dn});
    }
    placement_rr_ += 1;
    block_locations_[blk] = targets;
    record.blocks.push_back(blk);
    record.pending += 1;
    Send(targets[0], "writeBlock",
         {{"blk", blk}, {"mirror", targets.size() > 1 ? targets[1] : ""}, {"file", file}});
  }
  files_[file] = record;
}

void NameNode::GetBlockLocations(const Message& m) {
  CT_FRAME("FSNamesystem.getBlockLocations");
  if (!active_) {
    return;
  }
  auto it = files_.find(m.Arg("file"));
  if (it == files_.end() || it->second.blocks.empty()) {
    return;
  }
  const std::string& blk = it->second.blocks.front();
  auto locations = block_locations_.find(blk);
  if (locations == block_locations_.end() || locations->second.empty()) {
    return;
  }
  // HDFS-14216 read-path window: the chosen replica holder is not
  // revalidated against the live set.
  const std::string dn = locations->second.front();
  CheckDatanodeLive(dn, artifacts_->points.nn_block_location_read);
  Send(m.from, "fileLocations", {{"file", m.Arg("file")}, {"blk", blk}, {"dn", dn}});
}

void NameNode::GetFsStatus(const Message& m) {
  CT_FRAME("FSNamesystem.getFsStatus");
  int complete = 0;
  for (const auto& [file, record] : files_) {
    // Benign armed point: inodes survive datanode recovery.
    CT_PRE_READ(artifacts_->points.nn_fs_status_read, file);
    if (files_.find(file) != files_.end()) {
      ++complete;
    }
  }
  Send(m.from, "fsStatus", {{"files", std::to_string(complete)}});
}

void NameNode::DnHeartbeat(const Message& m) {
  const std::string& dn = m.Arg("dn");
  auto removed = removed_datanodes_.find(dn);
  if (removed != removed_datanodes_.end()) {
    const bool recovering =
        cluster().loop().Now() - removed->second <= kRemovalRaceWindowMs;
    removed_datanodes_.erase(removed);
    if (recovering) {
      // The heartbeat handler applies the report against dead-node state
      // while the removal is still being re-replicated, instead of demanding
      // re-registration (HDFS-15113): the race only a promptly healed
      // partition can produce.
      throw SimException(
          "UnregisteredNodeException",
          "Heartbeat from dead datanode " + dn + " processed without re-registration");
    }
    // Removal already settled: the stale heartbeat is answered with a
    // re-registration demand, which the simulation applies inline.
    datanodes_[dn] = true;
  }
  dn_fd_->Heartbeat(dn);
}

void NameNode::HandleDatanodeLost(const std::string& dn) {
  CT_FRAME("DatanodeManager.removeDeadDatanode");
  log().Log(artifacts_->stmts.dn_removed, {dn});
  datanodes_.erase(dn);
  removed_datanodes_[dn] = cluster().loop().Now();
  for (auto& [blk, dns] : block_locations_) {
    std::erase(dns, dn);
  }
}

void NameNode::Promote() {
  CT_FRAME("FSEditLogLoader.replay");
  if (active_) {
    return;
  }
  // Replay the shared edit log. A record torn by the active's crash raises
  // LogHeaderCorruptException, which the loader handles by truncating — the
  // tolerated IO fault of §4.2.2.
  CT_PRE_READ(artifacts_->points.nn_journal_replay_read, id());
  if (journal_->mid_write) {
    log().Warn("LogHeaderCorruptException while reading edit log, truncating last record", {},
               "FSEditLogLoader.replay");
    journal_->mid_write = false;
    journal_->records -= 1;
  }
  active_ = true;
  log().Log(artifacts_->stmts.nn_active, {id()});
  for (ctsim::Node* node : cluster().nodes()) {
    if (node->id() != id() && node->IsRunning()) {
      Send(node->id(), "newActive", {{"nn", id()}});
    }
  }
}

// --- DataNode ---------------------------------------------------------------

DataNode::DataNode(ctsim::Cluster* cluster, std::string id, std::string nn,
                   const HdfsArtifacts* artifacts, const HdfsConfig* config)
    : Node(cluster, std::move(id)), current_nn_(std::move(nn)), artifacts_(artifacts),
      config_(config) {
  Handle("registerAck", [this](const Message& m) {
    registered_ = true;
    log().Log(artifacts_->stmts.bp_registered, {m.Arg("bp"), this->id()});
  });
  Handle("newActive", [this](const Message& m) {
    current_nn_ = m.Arg("nn");
    Send(current_nn_, "registerDatanode", {{"dn", this->id()}, {"host", host()}});
  });
  Handle("writeBlock", [this](const Message& m) {
    CT_FRAME("BlockReceiver.receivePacket");
    // Replica store: the IO point of the write pipeline.
    CT_IO_BEGIN(artifacts_->io.dn_block_write_io);
    CT_IO_END(artifacts_->io.dn_block_write_io);
    const std::string blk = m.Arg("blk");
    const std::string mirror = m.Arg("mirror");
    const std::string file = m.Arg("file");
    After(config_->block_store_ms, [this, blk, mirror, file] {
      stored_blocks_.insert(blk);
      if (!mirror.empty()) {
        Send(mirror, "writeBlock", {{"blk", blk}, {"mirror", ""}, {"file", file}});
      } else {
        Send(current_nn_, "blockReceived", {{"blk", blk}, {"dn", this->id()}, {"file", file}});
      }
    });
  });
  Handle("readBlock", [this](const Message& m) {
    Send(m.from, "blockData", {{"blk", m.Arg("blk")}});
  });
}

void DataNode::OnStart() {
  After(200, [this] { Send(current_nn_, "registerDatanode", {{"dn", id()}, {"host", host()}}); });
  Every(config_->heartbeat_ms, [this] { Send(current_nn_, "dnHeartbeat", {{"dn", id()}}); });
  Every(config_->block_report_ms, [this] { BlockReport(); });
}

void DataNode::BlockReport() {
  CT_FRAME("BPOfferService.blockReport");
  // The report is built from the block-pool registration — read without
  // checking that registration ever completed (the HDFS-14372 substrate).
  CT_PRE_READ(artifacts_->points.dn_block_report_read, id());
  // Report contents elided; liveness flows through heartbeats.
}

void DataNode::OnShutdown() {
  CT_FRAME("BPOfferService.stop");
  Send(current_nn_, "unregisterDatanode", {{"dn", id()}});
  if (!registered_) {
    // HDFS-14372: stopping a BPOfferService that never finished registering
    // dereferences the missing registration and aborts.
    throw SimException("NullPointerException", "Shutdown before register causing abort on " + id());
  }
}

// --- Client -----------------------------------------------------------------

HdfsClient::HdfsClient(ctsim::Cluster* cluster, std::string id, std::string nn, int num_files,
                       const HdfsArtifacts* artifacts, const HdfsConfig* config,
                       HdfsJobState* job)
    : Node(cluster, std::move(id)),
      current_nn_(std::move(nn)),
      num_files_(num_files),
      artifacts_(artifacts),
      config_(config),
      job_(job) {
  Handle("fileComplete", [this](const Message&) {
    phase_ = Phase::kRead;
    ++op_serial_;
    attempts_ = 0;
    NextOp();
  });
  Handle("fileLocations", [this](const Message& m) {
    ++op_serial_;
    Send(m.Arg("dn"), "readBlock", {{"blk", m.Arg("blk")}});
  });
  Handle("blockData", [this](const Message&) {
    ++current_file_;
    phase_ = Phase::kWrite;
    ++op_serial_;
    attempts_ = 0;
    if (current_file_ >= num_files_) {
      phase_ = Phase::kDone;
      job_->done = true;
      return;
    }
    NextOp();
  });
  Handle("newActive", [this](const Message& m) { current_nn_ = m.Arg("nn"); });
  Handle("fsStatus", [](const Message&) {});
}

void HdfsClient::StartWorkload() {
  // TestDFSIO starts once the datanodes have finished registering.
  After(3500, [this] { NextOp(); });
  // The "+curl" status query over the web interface, mid-run.
  After(4500, [this] { Send(current_nn_, "getFsStatus", {}); });
}

void HdfsClient::NextOp() {
  if (phase_ == Phase::kDone) {
    return;
  }
  if (phase_ == Phase::kWrite) {
    Send(current_nn_, "createFile",
         {{"file", FileName(current_file_)}, {"index", std::to_string(current_file_)}});
  } else {
    Send(current_nn_, "getBlockLocations", {{"file", FileName(current_file_)}});
  }
  int serial = op_serial_;
  After(config_->client_op_timeout_ms, [this, serial] { RetryCheck(serial); });
}

void HdfsClient::RetryCheck(int op_serial) {
  if (phase_ == Phase::kDone || op_serial != op_serial_) {
    return;  // The op advanced.
  }
  if (++attempts_ > 8) {
    job_->failed = true;
    return;
  }
  NextOp();
}

}  // namespace cthdfs
