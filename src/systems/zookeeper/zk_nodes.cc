#include "src/systems/zookeeper/zk_nodes.h"

#include <algorithm>

#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace ctzk {

using ctsim::Message;

// How long a removal's recovery actions stay in flight — the width of the
// seeded message-race window. A stale heartbeat landing inside it hits the
// race; a later one takes the benign resync path. Sub-second-scale on
// purpose: the paper's observation is that recovery windows are narrow,
// which is why blind fault injection rarely lands in them.
constexpr ctsim::Time kRemovalRaceWindowMs = 1200;

ZkPeer::ZkPeer(ctsim::Cluster* cluster, std::string id, int myid, std::vector<std::string> peers,
               const ZkArtifacts* artifacts, const ZkConfig* config, QuorumShared* shared)
    : Node(cluster, std::move(id)),
      myid_(myid),
      heartbeat_verb_(cluster->Intern("peerHeartbeat")),
      artifacts_(artifacts),
      config_(config),
      shared_(shared) {
  for (const auto& peer : peers) {
    peers_.push_back(cluster->Intern(peer));
  }
  current_leader_ = LeaderId();
  peer_fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->fd_timeout_ms, config_->fd_sweep_ms,
      [this](const std::string& peer) { PeerLost(peer); });

  Handle("peerHeartbeat", [this](const Message& m) {
    const uint32_t from = m.from.id();
    if (from < lost_peers_.size() && lost_peers_[from] != kNotLost) {
      const bool recovering =
          this->cluster().loop().Now() - lost_peers_[from] <= kRemovalRaceWindowMs;
      lost_peers_[from] = kNotLost;
      if (recovering) {
        // The election view re-admits a peer it already expired without any
        // epoch sync, while the vote triggered by the expiry is still
        // converging: this replica voted (and possibly promoted) assuming
        // the peer was gone, and the rejoined peer still carries its old
        // view.
        throw ctsim::SimException("StaleEpochException",
                                  "Peer " + m.from +
                                      " rejoined the quorum without syncing its epoch");
      }
      // Election already reconverged: the peer is re-admitted benignly.
    }
    // The election view changes only when a peer is (re-)admitted, so the
    // leader is recomputed then and not on every heartbeat.
    if (Admit(m.from)) {
      current_leader_ = LeaderId();
    }
    peer_fd_->Heartbeat(m.from);
    if (IsLeader() && !announced_leading_) {
      announced_leading_ = true;
      log().Log(artifacts_->stmts.leading, {this->id()});
    }
  });
  Handle("create", [this](const Message& m) { CreateRequest(m); });
  Handle("get", [this](const Message& m) { GetRequest(m); });
  Handle("sync", [this](const Message& m) { SyncRequest(m); });
  Handle("propose", [this](const Message& m) {
    // Follower applies the replicated create and appends its txn log.
    CT_FRAME("SyncRequestProcessor.run");
    CT_IO_BEGIN(artifacts_->io.txnlog_append_io);
    CT_IO_END(artifacts_->io.txnlog_append_io);
    ApplyCreate(m.Arg("path"), m.Arg("data"));
    Send(m.from, "proposeAck", {{"path", m.Arg("path")}, {"client", m.Arg("client")}});
  });
  Handle("proposeAck", [this](const Message& m) {
    // Quorum: the first follower ack commits (leader + 1 of 3); later acks
    // for the same path are ignored.
    if (pending_commits_.erase(m.Arg("path")) == 0) {
      return;
    }
    shared_->write_in_flight = false;
    Send(m.Arg("client"), "createReply", {{"path", m.Arg("path")}});
  });
}

bool ZkPeer::Admit(ctsim::NodeId peer) {
  if (peer.id() >= alive_peers_.size()) {
    alive_peers_.resize(peer.id() + 1, false);
  }
  if (alive_peers_[peer.id()]) {
    return false;
  }
  alive_peers_[peer.id()] = true;
  return true;
}

void ZkPeer::OnStart() {
  Admit(sym());
  current_leader_ = LeaderId();
  log().Log(artifacts_->stmts.peer_up, {id(), std::to_string(myid_)});
  Every(config_->gossip_ms, [this] {
    // One quorum-broadcast round: every peer heartbeats every other, so a
    // round is O(peers²) messages cluster-wide.
    for (const ctsim::NodeId peer : peers_) {
      if (peer != sym()) {
        Send(peer, heartbeat_verb_);
      }
    }
  });
  peer_fd_->Start();
}

std::string ZkPeer::LeaderId() const {
  // Deterministic election: the highest-id live peer leads; every replica
  // holds the full state, so no data transfer is needed (the property the
  // paper credits for ZooKeeper's resilience to single crashes). O(peers):
  // called only when alive_peers_ changes, and current_leader_ caches it.
  std::string leader;
  for (const ctsim::NodeId peer : peers_) {
    if ((peer == sym() || InView(peer)) && peer.str() > leader) {
      leader = peer.str();
    }
  }
  return leader;
}

bool ZkPeer::IsLeader() const { return current_leader_ == id(); }

void ZkPeer::OnHandlerException(const std::string& context, const ctsim::SimException& e) {
  // Quorum-layer exceptions are logged and the peer keeps serving: the next
  // heartbeat round reconverges the election view (a real ensemble member
  // rejects the stale connection rather than dying).
  (void)context;
  (void)e;
}

void ZkPeer::PeerLost(const std::string& peer) {
  const ctsim::NodeId lost = this->cluster().Intern(peer);
  if (InView(lost)) {
    alive_peers_[lost.id()] = false;
  }
  if (lost.id() >= lost_peers_.size()) {
    lost_peers_.resize(lost.id() + 1, kNotLost);
  }
  lost_peers_[lost.id()] = this->cluster().loop().Now();
  std::string previous = current_leader_;
  current_leader_ = LeaderId();
  CT_FRAME("QuorumPeer.updateElectionVote");
  CT_POST_WRITE(artifacts_->points.quorum_member_write, peer);
  if (current_leader_ == id() && previous != id()) {
    // Promotion: reload from the local snapshot. A torn in-flight write
    // surfaces as an EOFException the loader handles by truncation — a
    // tolerated IO fault, not a bug.
    if (shared_->write_in_flight) {
      log().Warn("EOFException reading txn log, truncating torn transaction", {},
                 "ZooKeeperServer.loadData");
      shared_->write_in_flight = false;
    }
    log().Log(artifacts_->stmts.recovering, {std::to_string(znodes_.size())});
  }
}

void ZkPeer::CreateRequest(const Message& m) {
  CT_FRAME("PrepRequestProcessor.pRequest");
  if (!IsLeader()) {
    // Forward to the leader this peer believes in.
    CT_PRE_READ(artifacts_->points.leader_ref_read, current_leader_);
    if (!current_leader_.empty() && current_leader_ != id()) {
      CT_FRAME("FollowerRequestProcessor.processRequest");
      Send(current_leader_, "create",
           {{"path", m.Arg("path")}, {"data", m.Arg("data")}, {"client", m.Arg("client")}});
    }
    return;
  }
  std::string client = m.Arg("client").empty() ? m.from : m.Arg("client");
  // Session handling: full replicas make this read safe under any single
  // crash — the injection at this point is tolerated.
  std::string session = SessionId(session_counter_);
  if (sessions_.find(session) == sessions_.end()) {
    sessions_[session] = client;
    log().Log(artifacts_->stmts.session_opened, {session, id()});
  }
  CT_PRE_READ(artifacts_->points.leader_session_read, session);
  if (sessions_.find(session) == sessions_.end()) {
    return;  // Session expired; client will retry.
  }

  shared_->write_in_flight = true;
  CT_IO_BEGIN(artifacts_->io.txnlog_append_io);
  CT_IO_END(artifacts_->io.txnlog_append_io);
  ApplyCreate(m.Arg("path"), m.Arg("data"));
  pending_commits_.insert(m.Arg("path"));
  for (const ctsim::NodeId peer : peers_) {
    if (peer != sym() && InView(peer)) {
      Send(peer, "propose",
           {{"path", m.Arg("path")}, {"data", m.Arg("data")}, {"client", client}});
    }
  }
}

void ZkPeer::ApplyCreate(const std::string& path, const std::string& data) {
  CT_FRAME("DataTree.createNode");
  znodes_[path] = data;
  CT_POST_WRITE(artifacts_->points.znode_create_write, path);
  log().Log(artifacts_->stmts.znode_created, {path, id()});
}

void ZkPeer::SyncRequest(const Message& m) {
  // sync + read (the fuzz grammar's sync-read op): the read runs under the
  // final request processor rather than straight off the client connection,
  // so the znode lookup fires in the processor-chain context.
  CT_FRAME("FinalRequestProcessor.processRequest");
  GetRequest(m);
}

void ZkPeer::GetRequest(const Message& m) {
  CT_FRAME("DataTree.getData");
  const std::string& path = m.Arg("path");
  // Tolerated pre-read: the znode exists on every replica, so whichever
  // node the trigger removes, this lookup still succeeds somewhere.
  CT_PRE_READ(artifacts_->points.znode_get_read, path);
  auto it = znodes_.find(path);
  if (it == znodes_.end()) {
    return;  // Not yet replicated here; client retries.
  }
  Send(m.from, "getReply", {{"path", path}, {"data", it->second}});
}

// --- Client -------------------------------------------------------------------

ZkClient::ZkClient(ctsim::Cluster* cluster, std::string id, std::vector<std::string> servers,
                   int num_ops, const ZkArtifacts* artifacts, const ZkConfig* config,
                   ZkJobState* job)
    : Node(cluster, std::move(id)),
      servers_(std::move(servers)),
      num_ops_(num_ops),
      artifacts_(artifacts),
      config_(config),
      job_(job) {
  Handle("createReply", [this](const Message&) {
    ++serial_;
    attempts_ = 0;
    ++completed_;
    if (completed_ >= num_ops_) {
      completed_ = 0;
      reading_ = true;
    }
    After(config_->client_pacing_ms, [this] { NextOp(); });
  });
  Handle("getReply", [this](const Message&) {
    ++serial_;
    attempts_ = 0;
    ++completed_;
    if (completed_ >= num_ops_) {
      job_->done = true;
      return;
    }
    After(config_->client_pacing_ms, [this] { NextOp(); });
  });
}

void ZkClient::StartWorkload() {
  After(config_->client_start_ms, [this] { NextOp(); });
}

void ZkClient::NextOp() {
  if (job_->done) {
    return;
  }
  const std::string& server = servers_[server_rr_++ % servers_.size()];
  if (reading_) {
    Send(server, "get", {{"path", ZnodePath(completed_)}});
  } else {
    Send(server, "create",
         {{"path", ZnodePath(completed_)}, {"data", "smoke"}, {"client", id()}});
  }
  int serial = serial_;
  After(config_->client_retry_ms, [this, serial] { RetryCheck(serial); });
}

void ZkClient::RetryCheck(int serial) {
  if (job_->done || serial != serial_) {
    return;
  }
  if (++attempts_ > 40) {
    job_->failed = true;
    return;
  }
  NextOp();
}

}  // namespace ctzk
