#include "src/systems/zookeeper/zk_system.h"

#include "src/systems/zookeeper/zk_nodes.h"

namespace ctzk {

namespace {

class ZkRun : public ctcore::WorkloadRun {
 public:
  ZkRun(const ZkSystem* system, int workload_size)
      : system_(system), workload_size_(workload_size), config_(system->config()) {
    // The run owns a scaled copy of the config; peers point at it. The
    // ensemble stays an odd-or-even majority quorum at any size.
    config_.num_peers *= system_->scale();
    const ZkArtifacts* artifacts = &GetZkArtifacts();
    const ZkConfig* config = &config_;
    shared_ = std::make_unique<QuorumShared>();
    std::vector<std::string> peers;
    for (int i = 1; i <= config->num_peers; ++i) {
      peers.push_back("zkpeer" + std::to_string(i) + ":2888");
    }
    for (int i = 1; i <= config->num_peers; ++i) {
      cluster_.AddNode<ZkPeer>(peers[i - 1], i, peers, artifacts, config, shared_.get());
    }
    client_ = cluster_.AddNode<ZkClient>("zksmoke:11221", peers, workload_size * 2, artifacts,
                                         config, &job_);
    client_->set_workload_driver(true);
  }

  ctsim::Cluster& cluster() override { return cluster_; }
  void Start() override { client_->StartWorkload(); }
  bool JobFinished() const override { return job_.done; }
  bool JobFailed() const override { return job_.failed; }
  ctsim::Time ExpectedDurationMs() const override {
    return 3000 + static_cast<ctsim::Time>(workload_size_) * 1200;
  }

 private:
  const ZkSystem* system_;
  int workload_size_;
  ZkConfig config_;  // scaled copy; peers point at this
  ctsim::Cluster cluster_;
  std::unique_ptr<QuorumShared> shared_;
  ZkJobState job_;
  ZkClient* client_ = nullptr;
};

}  // namespace

std::unique_ptr<ctcore::WorkloadRun> ZkSystem::MakeRun(int workload_size) const {
  return std::make_unique<ZkRun>(this, workload_size);
}

}  // namespace ctzk
