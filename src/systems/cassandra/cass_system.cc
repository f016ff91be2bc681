#include "src/systems/cassandra/cass_system.h"

#include "src/systems/cassandra/cass_nodes.h"

namespace ctcass {

namespace {

class CassRun : public ctcore::WorkloadRun {
 public:
  CassRun(const CassSystem* system, int workload_size)
      : system_(system), workload_size_(workload_size), config_(system->config()) {
    // The run owns a scaled copy of the config; nodes point at it.
    config_.num_nodes *= system_->scale();
    const CassArtifacts* artifacts = &GetCassArtifacts();
    const CassConfig* config = &config_;
    std::vector<std::string> members;
    for (int i = 1; i <= config->num_nodes; ++i) {
      members.push_back("cass" + std::to_string(i) + ":7000");
    }
    for (const auto& member : members) {
      cluster_.AddNode<CassNode>(member, members, artifacts, config);
    }
    client_ = cluster_.AddNode<CassClient>("stress:9042", members, workload_size * 5, artifacts,
                                           config, &job_);
    client_->set_workload_driver(true);
  }

  ctsim::Cluster& cluster() override { return cluster_; }
  void Start() override { client_->StartWorkload(); }
  bool JobFinished() const override { return job_.done; }
  bool JobFailed() const override { return job_.failed; }
  ctsim::Time ExpectedDurationMs() const override {
    return 2500 + static_cast<ctsim::Time>(workload_size_) * 5 * (config_.client_pacing_ms + 60);
  }

 private:
  const CassSystem* system_;
  int workload_size_;
  CassConfig config_;  // scaled copy; nodes point at this
  ctsim::Cluster cluster_;
  CassJobState job_;
  CassClient* client_ = nullptr;
};

}  // namespace

std::unique_ptr<ctcore::WorkloadRun> CassSystem::MakeRun(int workload_size) const {
  return std::make_unique<CassRun>(this, workload_size);
}

}  // namespace ctcass
