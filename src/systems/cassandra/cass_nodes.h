// Mini-Cassandra nodes: gossiping storage peers and the Stress client.
#ifndef SRC_SYSTEMS_CASSANDRA_CASS_NODES_H_
#define SRC_SYSTEMS_CASSANDRA_CASS_NODES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/failure_detector.h"
#include "src/systems/cassandra/cass_defs.h"

namespace ctcass {

struct CassJobState {
  bool done = false;
  bool failed = false;
};

class CassNode : public ctsim::Node {
 public:
  CassNode(ctsim::Cluster* cluster, std::string id, std::vector<std::string> seeds,
           const CassArtifacts* artifacts, const CassConfig* config);

  const std::vector<std::string>& ring() const { return ring_; }
  const std::map<std::string, std::string>& data() const { return data_; }

 protected:
  void OnStart() override;
  void OnShutdown() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  void Mutate(const ctsim::Message& m);
  void MutateHinted(const ctsim::Message& m);
  void PeerDown(const std::string& peer);
  std::vector<std::string> ReplicasFor(const std::string& key);

  std::vector<ctsim::NodeId> seeds_;  // all cluster members (static topology)
  ctsim::Symbol gossip_verb_;         // "gossip"
  const CassArtifacts* artifacts_;
  const CassConfig* config_;

  std::vector<std::string> ring_;                // TokenMetadata.ring (live view), sorted
  // Peers markDead already expired, by expiry time. Gossip from one can
  // only arrive through a healed partition (a crashed peer never gossips
  // again, a leaving one announces first) — the seeded message race of
  // network-fault mode. The race is live only while hints and ring repair
  // for the death are still in flight; later stale gossip takes the benign
  // restart path. Either way the tombstone is cleared on first contact.
  std::map<std::string, ctsim::Time> downed_peers_;
  std::map<std::string, std::string> data_;      // row store
  std::map<std::string, std::string> hints_;     // HintsService.hints
  std::unique_ptr<ctsim::FailureDetector> gossip_fd_;
};

class CassClient : public ctsim::Node {
 public:
  CassClient(ctsim::Cluster* cluster, std::string id, std::vector<std::string> servers,
             int num_ops, const CassArtifacts* artifacts, const CassConfig* config,
             CassJobState* job);

  void StartWorkload();

 private:
  void NextOp();
  void RetryCheck(int serial);

  std::vector<std::string> servers_;
  int num_ops_;
  const CassArtifacts* artifacts_;
  const CassConfig* config_;
  CassJobState* job_;

  int completed_ = 0;
  int serial_ = 0;
  int attempts_ = 0;
  size_t coordinator_rr_ = 0;
};

}  // namespace ctcass

#endif  // SRC_SYSTEMS_CASSANDRA_CASS_NODES_H_
