// Mini-ZooKeeper nodes: quorum peers with full state replication, plus the
// SmokeTest client.
#ifndef SRC_SYSTEMS_ZOOKEEPER_ZK_NODES_H_
#define SRC_SYSTEMS_ZOOKEEPER_ZK_NODES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/failure_detector.h"
#include "src/systems/zookeeper/zk_defs.h"

namespace ctzk {

struct ZkJobState {
  bool done = false;
  bool failed = false;
};

// Run-shared marker for a write that was in flight when the leader died; the
// next leader truncates the torn record with a handled exception.
struct QuorumShared {
  bool write_in_flight = false;
};

class ZkPeer : public ctsim::Node {
 public:
  ZkPeer(ctsim::Cluster* cluster, std::string id, int myid, std::vector<std::string> peers,
         const ZkArtifacts* artifacts, const ZkConfig* config, QuorumShared* shared);

  bool IsLeader() const;
  // The peer this replica believes leads.
  const std::string& leader() const { return current_leader_; }
  const std::map<std::string, std::string>& znodes() const { return znodes_; }

 protected:
  void OnStart() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  void CreateRequest(const ctsim::Message& m);
  void GetRequest(const ctsim::Message& m);
  void SyncRequest(const ctsim::Message& m);
  void ApplyCreate(const std::string& path, const std::string& data);
  void PeerLost(const std::string& peer);
  std::string LeaderId() const;
  // Whether `peer` is in this replica's election view.
  bool InView(ctsim::NodeId peer) const {
    return peer.id() < alive_peers_.size() && alive_peers_[peer.id()];
  }
  // Admits `peer` to the election view; false if it was already in it.
  bool Admit(ctsim::NodeId peer);

  int myid_;
  std::vector<ctsim::NodeId> peers_;  // all quorum members including self
  ctsim::Symbol heartbeat_verb_;      // "peerHeartbeat"
  const ZkArtifacts* artifacts_;
  const ZkConfig* config_;
  QuorumShared* shared_;

  // Whether a peer is in the election view and, for one this replica
  // already expired from it, its expiry time (kNotLost otherwise); both
  // indexed by NodeId symbol id, ids past the end being neither. A
  // heartbeat from an expired peer can only arrive through a healed
  // partition (a crashed peer never speaks again) — the seeded message race
  // of network-fault mode. The race is live only while the re-election the
  // expiry triggered is still converging; later stale heartbeats re-admit
  // the peer benignly. Either way the tombstone is cleared on first contact.
  static constexpr ctsim::Time kNotLost = UINT64_MAX;
  std::vector<bool> alive_peers_;
  std::vector<ctsim::Time> lost_peers_;
  std::map<std::string, std::string> znodes_;    // DataTree.nodes (full replica)
  std::map<std::string, std::string> sessions_;  // SessionTracker.sessionsById
  // LeaderId(), recomputed whenever alive_peers_ changes (the peer itself
  // until it has heard from anyone).
  std::string current_leader_;
  std::set<std::string> pending_commits_;
  bool announced_leading_ = false;
  int session_counter_ = 0;
  std::unique_ptr<ctsim::FailureDetector> peer_fd_;
};

class ZkClient : public ctsim::Node {
 public:
  ZkClient(ctsim::Cluster* cluster, std::string id, std::vector<std::string> servers, int num_ops,
           const ZkArtifacts* artifacts, const ZkConfig* config, ZkJobState* job);

  void StartWorkload();

 private:
  void NextOp();
  void RetryCheck(int serial);

  std::vector<std::string> servers_;
  int num_ops_;
  const ZkArtifacts* artifacts_;
  const ZkConfig* config_;
  ZkJobState* job_;

  int completed_ = 0;
  bool reading_ = false;
  int serial_ = 0;
  int attempts_ = 0;
  size_t server_rr_ = 0;
};

}  // namespace ctzk

#endif  // SRC_SYSTEMS_ZOOKEEPER_ZK_NODES_H_
