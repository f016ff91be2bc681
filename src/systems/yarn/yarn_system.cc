#include "src/systems/yarn/yarn_system.h"

#include "src/systems/yarn/node_manager.h"
#include "src/systems/yarn/resource_manager.h"

namespace ctyarn {

namespace {

class YarnRun : public ctcore::WorkloadRun {
 public:
  YarnRun(const YarnSystem* system, int workload_size)
      : system_(system), workload_size_(workload_size), config_(system->config()) {
    // Nodes hold a pointer to the run's own scaled copy of the config, so a
    // scaled deployment never mutates the (shared, const) system object.
    config_.num_workers *= system_->scale();
    const YarnArtifacts* artifacts = &GetYarnArtifacts(system_->mode());
    const YarnConfig* config = &config_;
    rm_ = cluster_.AddNode<ResourceManager>("master:8030", artifacts, config, &job_);
    for (int i = 1; i <= config->num_workers; ++i) {
      std::string id = "node" + std::to_string(i) + ":42349";
      workers_.push_back(
          cluster_.AddNode<NodeManager>(id, std::string("master:8030"), artifacts, config, &job_));
    }
  }

  ctsim::Cluster& cluster() override { return cluster_; }

  void Start() override {
    // Client submits the WordCount job shortly after startup.
    cluster_.loop().Schedule(100, [this] {
      cluster_.Post("client", rm_->id(), "submitApplication",
                    {{"tasks", std::to_string(workload_size_)}});
    });
    // The "+curl" part of the workload: user queries via the web interface,
    // once the job is up and running.
    cluster_.loop().Schedule(20000, [this] {
      cluster_.Post("client", rm_->id(), "getClusterStatus");
      cluster_.Post("client", rm_->id(), "getNodeReport",
                    {{"node", workers_.front()->id()}});
    });
  }

  bool JobFinished() const override { return job_.done; }
  bool JobFailed() const override { return job_.failed; }
  ctsim::Time ExpectedDurationMs() const override {
    return 13000 + config_.am_init_ms + static_cast<ctsim::Time>(workload_size_) * 200;
  }

 private:
  const YarnSystem* system_;
  int workload_size_;
  YarnConfig config_;  // scaled copy; nodes point at this
  ctsim::Cluster cluster_;
  JobState job_;
  ResourceManager* rm_ = nullptr;
  std::vector<NodeManager*> workers_;
};

}  // namespace

YarnSystem::YarnSystem(YarnMode mode, YarnConfig config) : mode_(mode), config_(config) {}

const ctmodel::ProgramModel& YarnSystem::model() const { return GetYarnArtifacts(mode_).model; }

std::unique_ptr<ctcore::WorkloadRun> YarnSystem::MakeRun(int workload_size) const {
  return std::make_unique<YarnRun>(this, workload_size);
}

std::vector<ctcore::KnownBug> YarnSystem::known_bugs() const {
  // The Table 5 triage table (plus the two legacy reproductions of Table 1).
  std::vector<ctcore::KnownBug> bugs = {
      // Seeded message race for network-fault mode: only a partition that
      // outlives the liveness expiry and then heals can surface it. Listed
      // first so an injection that races *and* trips a crash-window symptom
      // triages to the race.
      {"YARN-9301", "Major", "message-race", "Unresolved",
       "Heartbeat from removed node applied without resync", "NodeId",
       "AbstractYarnScheduler.addNode", "Heartbeat from removed node"},
      {"YARN-9238", "Critical", "pre-read", "Fixed",
       "Allocating containers to removed ApplicationAttempt", "ApplicationAttemptId",
       "OpportunisticAMSProcessor.allocate", "removed application attempt"},
      {"YARN-9165", "Critical", "pre-read", "Fixed", "Scheduling the removed container",
       "ContainerId", "AbstractYarnScheduler.confirmContainer", "Scheduling the removed container"},
      {"YARN-9193", "Critical", "pre-read", "Fixed", "Allocating container to removed node",
       "NodeId", "OpportunisticContainerAllocator.allocateNodes", "removed node"},
      {"YARN-9164", "Critical", "pre-read", "Fixed", "Cluster down due to using the removed node",
       "NodeId", "AbstractYarnScheduler.completeContainer", "completeContainer on removed node"},
      {"YARN-9201", "Major", "pre-read", "Fixed",
       "Invalid event for current state of ApplicationAttempt", "ContainerId",
       "RMContainerImpl.processLaunched", "Invalid event LAUNCHED"},
      {"YARN-9194", "Critical", "pre-read", "Fixed",
       "Invalid event for current state of ApplicationAttempt", "ApplicationId",
       "RMAppImpl.statusUpdate", "Invalid event STATUS_UPDATE"},
      {"YARN-8650", "Major", "pre-read", "Fixed", "Invalid event for current state of Container",
       "ContainerId", "ContainerImpl.handle", "for current state KILLED of Container"},
      {"YARN-9248", "Major", "pre-read", "Fixed", "Invalid event for current state of Container",
       "ApplicationAttemptId", "SchedulerApplicationAttempt.releaseContainers",
       "current state RELEASED of Container"},
      {"YARN-8649", "Major", "pre-read", "Fixed", "Resource Leak due to removed container",
       "ApplicationId", "RMAppImpl.finishApplication", "Resource Leak"},
      {"MR-7178", "Major", "post-write", "Unresolved",
       "Shutdown during initialization causing abort", "TaskAttemptId",
       "TaskAttemptImpl.initialize", "Shutdown during initialization"},
      // Legacy (Table 1) reproductions.
      {"YARN-5918", "Major", "pre-read", "Fixed (in trunk)",
       "NPE reading resources of removed node", "NodeId", "MRAppMaster.getNodeResource",
       "resources of removed node"},
      {"MR-3858", "Major", "post-write", "Fixed (in trunk)",
       "Commit state contaminated; job never finishes", "TaskAttemptId",
       "TaskAttemptListener.commitPending", "system hang"},
  };
  return bugs;
}

}  // namespace ctyarn
