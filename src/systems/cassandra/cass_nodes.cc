#include "src/systems/cassandra/cass_nodes.h"

#include <algorithm>

#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace ctcass {

using ctsim::Message;
using ctsim::SimException;

// How long a removal's recovery actions stay in flight — the width of the
// seeded message-race window. A stale heartbeat landing inside it hits the
// race; a later one takes the benign resync path. Sub-second-scale on
// purpose: the paper's observation is that recovery windows are narrow,
// which is why blind fault injection rarely lands in them.
constexpr ctsim::Time kRemovalRaceWindowMs = 1200;

CassNode::CassNode(ctsim::Cluster* cluster, std::string id, std::vector<std::string> seeds,
                   const CassArtifacts* artifacts, const CassConfig* config)
    : Node(cluster, std::move(id)),
      gossip_verb_(cluster->Intern("gossip")),
      artifacts_(artifacts),
      config_(config) {
  for (const auto& seed : seeds) {
    seeds_.push_back(cluster->Intern(seed));
  }
  gossip_fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->fd_timeout_ms, config_->fd_sweep_ms,
      [this](const std::string& peer) { PeerDown(peer); });

  Handle("gossip", [this](const Message& m) {
    CT_FRAME("Gossiper.applyStateLocally");
    auto downed = downed_peers_.find(m.from);
    if (downed != downed_peers_.end()) {
      const bool recovering =
          this->cluster().loop().Now() - downed->second <= kRemovalRaceWindowMs;
      downed_peers_.erase(downed);
      if (recovering) {
        // Gossip from an endpoint markDead already expired is applied
        // without the restart/generation check while hints for the death
        // are still being written (the gossip restart race): writes routed
        // while the peer was out now disagree with its re-announced state.
        throw SimException("IllegalStateException",
                           "Gossip restart race: endpoint " + m.from +
                               " rejoined after being marked dead");
      }
      // Hints already settled: benign restart path.
    }
    gossip_fd_->Heartbeat(m.from);
    // ring_ stays sorted: a new peer is inserted at its place.
    auto slot = std::lower_bound(ring_.begin(), ring_.end(), m.from.str());
    if (slot == ring_.end() || *slot != m.from.str()) {
      ring_.insert(slot, m.from);
      // Benign post-write: losing the freshly-seen peer just re-runs the
      // gossip round.
      CT_POST_WRITE(artifacts_->points.gossip_state_write, m.from);
      log().Log(artifacts_->stmts.node_up, {m.from});
    }
  });
  Handle("leaving", [this](const Message& m) { gossip_fd_->NotifyLeft(m.from); });
  Handle("mutate", [this](const Message& m) { Mutate(m); });
  Handle("hintedMutate", [this](const Message& m) { MutateHinted(m); });
  Handle("writeRow", [this](const Message& m) {
    CT_FRAME("Keyspace.apply");
    CT_IO_BEGIN(artifacts_->io.commitlog_append_io);
    CT_IO_END(artifacts_->io.commitlog_append_io);
    data_[m.Arg("key")] = m.Arg("val");
    Send(m.from, "rowAck", {{"key", m.Arg("key")}, {"client", m.Arg("client")}});
  });
  Handle("rowAck", [this](const Message& m) {
    Send(m.Arg("client"), "mutateReply", {{"key", m.Arg("key")}});
  });
}

void CassNode::OnStart() {
  ring_.push_back(id());
  log().Log(artifacts_->stmts.node_joined, {id()});
  Every(config_->gossip_ms, [this] {
    for (const ctsim::NodeId peer : seeds_) {
      if (peer != sym()) {
        Send(peer, gossip_verb_);
      }
    }
  });
  gossip_fd_->Start();
}

void CassNode::OnShutdown() {
  for (const ctsim::NodeId peer : seeds_) {
    if (peer != sym()) {
      Send(peer, "leaving", {});
    }
  }
}

void CassNode::OnHandlerException(const std::string& context, const SimException& e) {
  // UnavailableExceptions are returned to the coordinator's client; the
  // storage process survives.
  (void)context;
  (void)e;
}

void CassNode::PeerDown(const std::string& peer) {
  CT_FRAME("Gossiper.markDead");
  std::erase(ring_, peer);
  downed_peers_[peer] = this->cluster().loop().Now();
  log().Log(artifacts_->stmts.node_down, {peer});
}

void CassNode::MutateHinted(const Message& m) {
  // Blocking write used by the fuzz grammar: the replica set is resolved up
  // front, but the per-endpoint dispatch only runs after the write timeout —
  // CA-15131's actual gap. A replica that gossip marks dead inside that gap
  // is hinted instead of written, which the synchronous Mutate path above
  // can never do (its resolution and liveness check read the same ring).
  CT_FRAME("StorageProxy.performWrite");
  const std::string key = m.Arg("key");
  const std::string val = m.Arg("val");
  const std::vector<std::string> replicas = ReplicasFor(key);
  After(config_->fd_timeout_ms + 2 * config_->fd_sweep_ms, [this, replicas, key, val] {
    CT_FRAME("StorageProxy.performWrite");
    for (const std::string& replica : replicas) {
      if (replica == id()) {
        CT_FRAME("Keyspace.apply");
        CT_IO_BEGIN(artifacts_->io.commitlog_append_io);
        CT_IO_END(artifacts_->io.commitlog_append_io);
        data_[key] = val;
        log().Log(artifacts_->stmts.key_written, {key, replica});
        continue;
      }
      if (std::find(ring_.begin(), ring_.end(), replica) == ring_.end()) {
        CT_FRAME("HintsService.write");
        hints_[replica] = key;
        CT_POST_WRITE(artifacts_->points.hint_store_write, replica);
        log().Log(artifacts_->stmts.hint_written, {replica});
        continue;
      }
      Send(replica, "writeRow", {{"key", key}, {"val", val}, {"client", "fuzzer"}});
    }
  });
}

std::vector<std::string> CassNode::ReplicasFor(const std::string& key) {
  // Token ring over the *live* membership view: re-resolving after a node
  // leaves maps keys to surviving replicas, so a failed request succeeds on
  // retry. The CA-15131 window is the gap between this resolution and the
  // liveness re-check in Mutate. The partitioner hashes the trailing digits
  // of the key (ByteOrderedPartitioner-style, deterministic for tests).
  std::vector<std::string> replicas;
  if (ring_.empty()) {
    return replicas;
  }
  size_t token = 1;
  for (char c : key) {
    if (c >= '0' && c <= '9') {
      token = token * 10 + static_cast<size_t>(c - '0');
    }
  }
  for (int r = 0; r < config_->replication_factor && r < static_cast<int>(ring_.size()); ++r) {
    replicas.push_back(ring_[(token + r) % ring_.size()]);
  }
  return replicas;
}

void CassNode::Mutate(const Message& m) {
  CT_FRAME("StorageProxy.performWrite");
  const std::string key = m.Arg("key");
  const std::string client = m.from;
  bool sent = false;
  for (const std::string& replica : ReplicasFor(key)) {
    if (replica == id()) {
      // Local apply: no remote endpoint involved.
      CT_FRAME("Keyspace.apply");
      CT_IO_BEGIN(artifacts_->io.commitlog_append_io);
      CT_IO_END(artifacts_->io.commitlog_append_io);
      data_[key] = m.Arg("val");
      if (!sent) {
        sent = true;
        Send(client, "mutateReply", {{"key", key}});
      }
      log().Log(artifacts_->stmts.key_written, {key, replica});
      continue;
    }
    // CA-15131: the remote replica resolved from the token ring is used
    // without re-validating against the live view; a node that left during
    // the wait fails the request.
    CT_PRE_READ(artifacts_->points.coordinator_ring_read, replica);
    bool in_ring = std::find(ring_.begin(), ring_.end(), replica) != ring_.end();
    if (!in_ring) {
      if (!sent) {
        throw SimException("UnavailableException",
                           "Request fails due to using removed node " + replica);
      }
      // Secondary replica down: store a hint for later delivery instead.
      CT_FRAME("HintsService.write");
      hints_[replica] = key;
      CT_POST_WRITE(artifacts_->points.hint_store_write, replica);
      log().Log(artifacts_->stmts.hint_written, {replica});
      continue;
    }
    Send(replica, "writeRow", {{"key", key}, {"val", m.Arg("val")}, {"client", client}});
    if (!sent) {
      sent = true;  // consistency level ONE: first replica acks the client
    }
    log().Log(artifacts_->stmts.key_written, {key, replica});
  }
}

// --- Client -------------------------------------------------------------------

CassClient::CassClient(ctsim::Cluster* cluster, std::string id, std::vector<std::string> servers,
                       int num_ops, const CassArtifacts* artifacts, const CassConfig* config,
                       CassJobState* job)
    : Node(cluster, std::move(id)),
      servers_(std::move(servers)),
      num_ops_(num_ops),
      artifacts_(artifacts),
      config_(config),
      job_(job) {
  Handle("mutateReply", [this](const Message&) {
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

void CassClient::StartWorkload() {
  After(config_->client_start_ms, [this] { NextOp(); });
}

void CassClient::NextOp() {
  if (job_->done) {
    return;
  }
  const std::string& coordinator = servers_[coordinator_rr_++ % servers_.size()];
  Send(coordinator, "mutate", {{"key", RowKey(completed_)}, {"val", "v"}});
  int serial = serial_;
  After(config_->client_retry_ms, [this, serial] { RetryCheck(serial); });
}

void CassClient::RetryCheck(int serial) {
  if (job_->done || serial != serial_) {
    return;
  }
  if (++attempts_ > 40) {
    job_->failed = true;
    return;
  }
  NextOp();
}

}  // namespace ctcass
