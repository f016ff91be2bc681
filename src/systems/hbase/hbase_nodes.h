// Mini-HBase nodes: HMaster, RegionServers, the ZooKeeper-like coordination
// service, and the PE client.
#ifndef SRC_SYSTEMS_HBASE_HBASE_NODES_H_
#define SRC_SYSTEMS_HBASE_HBASE_NODES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/failure_detector.h"
#include "src/systems/hbase/hbase_defs.h"

namespace cthbase {

struct HBaseJobState {
  bool done = false;
  bool failed = false;
};

// The lower-layer coordination service. RegionServers create ephemeral
// znodes and heartbeat their sessions; expiry is the *only* crash signal the
// master gets — a server that dies before registering here is invisible
// (the HBASE-22041 substrate).
class ZkQuorum : public ctsim::Node {
 public:
  ZkQuorum(ctsim::Cluster* cluster, std::string id, std::string master,
           const HBaseArtifacts* artifacts, const HBaseConfig* config);

 protected:
  void OnStart() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  std::string master_;
  const HBaseArtifacts* artifacts_;
  const HBaseConfig* config_;
  std::map<std::string, std::string> ephemerals_;  // znode path → owner
  // Sessions the expiry sweep already declared dead, by expiry time. A
  // heartbeat from one can only arrive through a healed partition (a dead
  // RS never speaks again, a stopping one closes its session first) — the
  // seeded message race of network-fault mode. The race is live only while
  // the master's server-crash procedure is still running; later stale
  // heartbeats take the benign new-session path. Either way the tombstone
  // is cleared on first contact.
  std::map<std::string, ctsim::Time> expired_sessions_;
  std::unique_ptr<ctsim::FailureDetector> session_fd_;
};

class HMaster : public ctsim::Node {
 public:
  HMaster(ctsim::Cluster* cluster, std::string id, const HBaseArtifacts* artifacts,
          const HBaseConfig* config, HBaseJobState* job);

  struct RegionState {
    std::string server;
    std::string state;  // OPENING / OPEN / RECOVERING
    ctsim::Time since = 0;
  };

  bool active() const { return active_; }
  const std::map<std::string, RegionState>& regions() const { return regions_; }
  const std::set<std::string>& online_servers() const { return online_; }

 protected:
  void OnStart() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  void ReportForDuty(const ctsim::Message& m);
  void PollServerInfo(const std::string& rs, int attempt);
  void ServerInfo(const ctsim::Message& m);
  void Activate();
  void AssignInitialRegions();
  void AssignRegion(const std::string& region, const std::string& rs, bool rebalance);
  void ServerCrashProcedure(const std::string& rs);
  void Locate(const ctsim::Message& m);
  void ForceBalance(const ctsim::Message& m);
  void BalancerChore();
  void StuckRegionChore();
  std::string PickServer(const std::string& exclude);

  const HBaseArtifacts* artifacts_;
  const HBaseConfig* config_;
  HBaseJobState* job_;

  bool active_ = false;
  std::set<std::string> online_;            // ServerManager.onlineServers
  std::set<std::string> pending_info_;      // servers whose startup read is pending
  std::string meta_candidate_;              // HMaster.metaServerCandidate
  std::map<std::string, RegionState> regions_;  // AssignmentManager.regionStates
  bool rebalanced_ = false;
  size_t assign_rr_ = 0;
};

class RegionServer : public ctsim::Node {
 public:
  RegionServer(ctsim::Cluster* cluster, std::string id, std::string master, std::string zk,
               const HBaseArtifacts* artifacts, const HBaseConfig* config);

 protected:
  void OnStart() override;
  void OnShutdown() override;

 private:
  void OpenRegion(const ctsim::Message& m);

  std::string master_;
  std::string zk_;
  // The session heartbeat's fixed destination and verb, interned once.
  ctsim::NodeId zk_id_;
  ctsim::Symbol session_heartbeat_verb_;
  const HBaseArtifacts* artifacts_;
  const HBaseConfig* config_;
  bool init_done_ = false;
  bool zk_registered_ = false;
  std::map<std::string, std::string> regions_;  // HRegionServer.onlineRegions
};

class HBaseClient : public ctsim::Node {
 public:
  HBaseClient(ctsim::Cluster* cluster, std::string id, std::string master, int num_ops,
              const HBaseArtifacts* artifacts, const HBaseConfig* config, HBaseJobState* job);

  void StartWorkload();

 private:
  void NextOp();
  void RetryCheck(int serial);

  std::string master_;
  int num_ops_;
  const HBaseArtifacts* artifacts_;
  const HBaseConfig* config_;
  HBaseJobState* job_;

  int completed_ = 0;
  int serial_ = 0;
  int attempts_ = 0;
};

}  // namespace cthbase

#endif  // SRC_SYSTEMS_HBASE_HBASE_NODES_H_
