#include "src/systems/hdfs/hdfs_system.h"

#include "src/systems/hdfs/hdfs_nodes.h"

namespace cthdfs {

namespace {

class HdfsRun : public ctcore::WorkloadRun {
 public:
  HdfsRun(const HdfsSystem* system, int workload_size)
      : system_(system), workload_size_(workload_size), config_(system->config()) {
    // The run owns a scaled copy of the config; nodes point at it.
    config_.num_datanodes *= system_->scale();
    const HdfsArtifacts* artifacts = &GetHdfsArtifacts();
    const HdfsConfig* config = &config_;
    journal_ = std::make_unique<Journal>();
    active_ = cluster_.AddNode<NameNode>("namenode1:9000", std::string("namenode2:9000"),
                                         /*active=*/true, artifacts, config, journal_.get());
    standby_ = cluster_.AddNode<NameNode>("namenode2:9000", std::string("namenode1:9000"),
                                          /*active=*/false, artifacts, config, journal_.get());
    for (int i = 1; i <= config->num_datanodes; ++i) {
      cluster_.AddNode<DataNode>("dnode" + std::to_string(i) + ":50010",
                                 std::string("namenode1:9000"), artifacts, config);
    }
    client_ = cluster_.AddNode<HdfsClient>("dfsclient:2000", std::string("namenode1:9000"),
                                           workload_size, artifacts, config, &job_);
    client_->set_workload_driver(true);
  }

  ctsim::Cluster& cluster() override { return cluster_; }
  void Start() override { client_->StartWorkload(); }
  bool JobFinished() const override { return job_.done; }
  bool JobFailed() const override { return job_.failed; }
  ctsim::Time ExpectedDurationMs() const override {
    return 8000 + static_cast<ctsim::Time>(workload_size_) * 1500;
  }

 private:
  const HdfsSystem* system_;
  int workload_size_;
  HdfsConfig config_;  // scaled copy; nodes point at this
  ctsim::Cluster cluster_;
  std::unique_ptr<Journal> journal_;
  HdfsJobState job_;
  NameNode* active_ = nullptr;
  NameNode* standby_ = nullptr;
  HdfsClient* client_ = nullptr;
};

}  // namespace

std::unique_ptr<ctcore::WorkloadRun> HdfsSystem::MakeRun(int workload_size) const {
  return std::make_unique<HdfsRun>(this, workload_size);
}

std::vector<ctcore::KnownBug> HdfsSystem::known_bugs() const {
  return {
      // Seeded message race for network-fault mode (listed first so a run
      // that also trips HDFS-14216's request failure triages to the race).
      {"HDFS-15113", "Major", "message-race", "Unresolved",
       "Heartbeat from dead datanode processed without re-registration", "DataNodeInfo",
       "DatanodeManager.registerDatanode", "Heartbeat from dead datanode"},
      {"HDFS-14216", "Major", "pre-read", "Fixed", "Request fails due to removed node",
       "DataNodeInfo", "DatanodeManager.getDatanode", "Request fails due to removed node"},
      {"HDFS-14372", "Major", "pre-read", "Fixed", "Shutdown before register causing abort",
       "BPOfferService", "BPOfferService.blockReport", "Shutdown before register"},
  };
}

}  // namespace cthdfs
