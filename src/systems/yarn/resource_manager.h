// Mini-YARN ResourceManager.
//
// Carries the scheduler state (nodes, containers, applications, attempts),
// the liveness monitor, and the application/attempt/container state-machine
// handlers. The crash-recovery windows of the Table 5 YARN bugs live here;
// each is a real race between the LOST-recovery path and a handler that
// reads or writes meta-info without re-validating it (see the per-handler
// comments). The RM is the critical node: an uncaught NullPointerException
// aborts it and takes the cluster down (YARN-9164's failure mode).
#ifndef SRC_SYSTEMS_YARN_RESOURCE_MANAGER_H_
#define SRC_SYSTEMS_YARN_RESOURCE_MANAGER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/failure_detector.h"
#include "src/systems/yarn/job_state.h"
#include "src/systems/yarn/yarn_defs.h"

namespace ctyarn {

class ResourceManager : public ctsim::Node {
 public:
  ResourceManager(ctsim::Cluster* cluster, std::string id, const YarnArtifacts* artifacts,
                  const YarnConfig* config, JobState* job);

  // Scheduler state, exposed for tests.
  struct SchedulerNode {
    std::string node_id;
    int capacity = 4;
    int used = 0;
  };
  struct RMContainer {
    std::string id;
    std::string node;
    std::string attempt;
    int task = -1;          // -1 for the master container
    std::string state;      // ALLOCATED / RUNNING / COMPLETED / RELEASED / KILLED
    bool master = false;
  };
  struct RMAttempt {
    std::string id;
    std::string app;
    std::string node;   // node hosting the ApplicationMaster
    std::string state;  // NEW / RUNNING / FAILED / FINISHED
    bool initialized = false;
    std::string master_container;
    std::vector<std::string> containers;  // every container ever allocated to it
  };
  struct RMApp {
    std::string id;
    std::string current_attempt;
    std::string state;  // SUBMITTED / RUNNING / FINISHING / FINISHED / FAILED
    int attempt_count = 0;
    int num_tasks = 0;
    std::set<int> completed_tasks;
  };

  const std::map<std::string, SchedulerNode>& scheduler_nodes() const { return nodes_; }
  const std::map<std::string, RMContainer>& containers() const { return containers_; }
  const std::map<std::string, RMApp>& apps() const { return apps_; }
  const std::map<std::string, RMAttempt>& attempts() const { return attempts_; }

 protected:
  void OnStart() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  // RPC handlers.
  void RegisterNode(const ctsim::Message& m);
  void NodeHeartbeat(const ctsim::Message& m);
  void SubmitApplication(const ctsim::Message& m);
  void RegisterAm(const ctsim::Message& m);
  void Allocate(const ctsim::Message& m);
  void ContainerEvent(const ctsim::Message& m, const std::string& event, int point_id);
  void ContainerCompleted(const ctsim::Message& m);
  void ReleaseUnused(const ctsim::Message& m);
  void FinishApplication(const ctsim::Message& m);
  void GetClusterStatus(const ctsim::Message& m);
  void GetNodeReport(const ctsim::Message& m);
  void AmFailed(const ctsim::Message& m);

  // Recovery machinery.
  void HandleNodeLost(const std::string& node_id);
  void AttemptFailed(const std::string& attempt_id);
  void CreateAttempt(const std::string& app_id);

  // Internal (timer / async-dispatcher) paths.
  void ProcessLaunched(const std::string& container_id);   // YARN-9201 window
  void ConfirmContainer(const std::string& container_id);  // YARN-9165 window
  void StatusUpdate(const std::string& app_id,
                    const std::string& attempt_id);  // YARN-9194 window

  // Shared container-completion path holding the promoted getScheNode read of
  // Fig. 10 (YARN-9164). Throws NullPointerException when the node is gone.
  // node_id is taken by value: callers pass strings owned by containers_,
  // and the injection hook inside may run recovery that erases that entry.
  void CompleteOnNode(const std::string& container_id, std::string node_id);

  std::string NewContainerOn(const std::string& node_id, const std::string& attempt_id, int task,
                             bool master);

  const YarnArtifacts* artifacts_;
  const YarnConfig* config_;
  JobState* job_;

  std::map<std::string, SchedulerNode> nodes_;
  // Registration-order node candidate list; *not* cleaned on node loss — the
  // staleness YARN-9193 exploits.
  std::vector<std::string> node_list_;
  std::map<std::string, RMContainer> containers_;
  std::map<std::string, RMApp> apps_;
  std::map<std::string, RMAttempt> attempts_;
  // Nodes the liveness monitor declared LOST, by removal time. A heartbeat
  // from one of these can only arrive through a healed partition (crashed
  // nodes never speak again, decommissioned ones unregister first) — the
  // seeded message race network-fault mode targets. The race is live only
  // while the removal's recovery (container sweep, reallocation) is still in
  // flight; a later stale heartbeat takes the benign resync path. Either way
  // the tombstone is cleared on first contact.
  std::map<std::string, ctsim::Time> removed_nodes_;
  std::unique_ptr<ctsim::FailureDetector> fd_;
  int next_container_ = 0;
  int job_counter_ = 0;
  size_t opportunistic_rr_ = 0;
};

}  // namespace ctyarn

#endif  // SRC_SYSTEMS_YARN_RESOURCE_MANAGER_H_
