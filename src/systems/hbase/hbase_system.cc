#include "src/systems/hbase/hbase_system.h"

#include "src/systems/hbase/hbase_nodes.h"

namespace cthbase {

namespace {

class HBaseRun : public ctcore::WorkloadRun {
 public:
  HBaseRun(const HBaseSystem* system, int workload_size)
      : system_(system), config_(system->config()) {
    // The run owns a scaled copy of the config; nodes point at it. Regions
    // scale with the servers so per-server load stays constant.
    config_.num_regionservers *= system_->scale();
    config_.num_regions *= system_->scale();
    const HBaseArtifacts* artifacts = &GetHBaseArtifacts();
    const HBaseConfig* config = &config_;
    master_ = cluster_.AddNode<HMaster>("hmaster:16000", artifacts, config, &job_);
    cluster_.AddNode<ZkQuorum>("zkquorum:2181", std::string("hmaster:16000"), artifacts, config);
    for (int i = 1; i <= config->num_regionservers; ++i) {
      auto* rs = cluster_.AddNode<RegionServer>("rserver" + std::to_string(i) + ":16020",
                                                std::string("hmaster:16000"),
                                                std::string("zkquorum:2181"), artifacts, config);
      if (i == config->num_regionservers) {
        rs->set_defer_start(true);  // the late joiner
        late_joiner_ = rs->id();
      }
    }
    client_ = cluster_.AddNode<HBaseClient>("hclient:34000", std::string("hmaster:16000"),
                                            workload_size * 4, artifacts, config, &job_);
    client_->set_workload_driver(true);
  }

  ctsim::Cluster& cluster() override { return cluster_; }
  void Start() override {
    client_->StartWorkload();
    cluster_.loop().Schedule(config_.late_join_ms, [this] { cluster_.StartNode(late_joiner_); });
  }
  bool JobFinished() const override { return job_.done; }
  bool JobFailed() const override { return job_.failed; }
  ctsim::Time ExpectedDurationMs() const override {
    // The PE client's op count scales with the deployment (workload size is
    // Scaled and each unit is 4 ops at 400ms pacing), so the deadline grows
    // per scale step; at scale 1 it is the paper's fixed 16s for every
    // workload size, keeping profiler deadlines unchanged.
    return 16000 + static_cast<ctsim::Time>(system_->scale() - 1) * 12000;
  }

 private:
  const HBaseSystem* system_;
  HBaseConfig config_;  // scaled copy; nodes point at this
  ctsim::Cluster cluster_;
  HBaseJobState job_;
  HMaster* master_ = nullptr;
  HBaseClient* client_ = nullptr;
  std::string late_joiner_;
};

}  // namespace

std::unique_ptr<ctcore::WorkloadRun> HBaseSystem::MakeRun(int workload_size) const {
  return std::make_unique<HBaseRun>(this, workload_size);
}

std::vector<ctcore::KnownBug> HBaseSystem::known_bugs() const {
  return {
      // Seeded message race for network-fault mode. Listed first: its window
      // anchors on the balancer scan, whose location HBASE-22050 shares, and
      // a race run usually trips the balancer's atomic violation too — the
      // triage must attribute the run to the race.
      {"HBASE-22862", "Critical", "message-race", "Unresolved",
       "Session heartbeat from expired region server accepted without restart", "ServerName",
       "LoadBalancer.balanceCluster", "Session heartbeat from expired region server"},
      {"HBASE-22041", "Critical", "post-write", "Unresolved", "Master startup node hang",
       "ServerName", "ServerManager.regionServerReport", ""},
      {"HBASE-22017", "Critical", "pre-read", "Fixed",
       "Master fails to become active due to removed node", "ServerName",
       "HMaster.finishActiveMasterInitialization", "fails to become active"},
      {"HBASE-21740", "Major", "post-write", "Fixed", "Shutdown during initialization causing abort",
       "MetricsRegionServer", "HRegionServer.initializeMetrics", ""},
      {"HBASE-21740", "Major", "post-write", "Fixed", "Shutdown during initialization causing abort",
       "MetricsRegionServer", "ServerCrashProcedure.execute", "Shutdown during initialization"},
      {"HBASE-22050", "Major", "pre-read", "Unresolved", "Atomic violation causing shutdown aborts",
       "RegionInfo", "LoadBalancer.balanceCluster", "Atomic violation"},
      {"HBASE-22023", "Trivial", "post-write", "Unresolved",
       "Shutdown during initialization causing abort", "MetricsRegionServer",
       "MetricsRegionServerWrapperImpl.init", ""},
      // Lower-layer bugs CrashTuner cannot reach (§4.1.1): the accessed
      // ZooKeeper meta-info never maps to a node. Listed for the
      // reproduction study; no location so triage never claims them.
      {"HBASE-7111", "Major", "pre-read", "Not reproduced", "ZNode meta-info unresolvable",
       "ZNode", "", ""},
      {"HBASE-5722", "Major", "pre-read", "Not reproduced", "ZNode meta-info unresolvable",
       "ZNode", "", ""},
      {"HBASE-5635", "Major", "pre-read", "Not reproduced", "ZNode meta-info unresolvable",
       "ZNode", "", ""},
  };
}

}  // namespace cthbase
