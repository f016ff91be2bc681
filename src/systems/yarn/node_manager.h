// Mini-YARN NodeManager, hosting task JVMs and (on one worker) the MapReduce
// ApplicationMaster.
//
// Everything running on the machine — the NM daemon, the AM, task JVMs —
// dies together when the node crashes, which is exactly the granularity the
// paper's shutdown scripts and kill -9 operate at. The AM carries the
// MR-3858 commit protocol (Fig. 3) and the MR-7178 initialization window;
// task JVMs expose the launch-log and output-write IO points the IO-fault
// baseline instruments.
#ifndef SRC_SYSTEMS_YARN_NODE_MANAGER_H_
#define SRC_SYSTEMS_YARN_NODE_MANAGER_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/sim/cluster.h"
#include "src/systems/yarn/job_state.h"
#include "src/systems/yarn/yarn_defs.h"

namespace ctyarn {

class NodeManager : public ctsim::Node {
 public:
  NodeManager(ctsim::Cluster* cluster, std::string id, std::string rm,
              const YarnArtifacts* artifacts, const YarnConfig* config, JobState* job);

  // AM-side task bookkeeping (public for tests).
  struct TaskRecord {
    int index = 0;
    int retry = 0;
    std::string state = "PENDING";  // PENDING/REQUESTED/LAUNCHED/INITIALIZING/
                                    // RUNNING/COMMIT_PENDING/DONE
    std::string node;
    std::string cid;
    std::string ta;
  };
  struct AmState {
    std::string app;
    std::string attempt;
    int num_tasks = 0;
    std::map<std::string, int> am_nodes;            // MRAppMaster.amNodes
    std::map<int, TaskRecord> tasks;
    std::map<int, std::string> commit;              // MRAppMaster.commit (Fig. 3)
    std::map<std::string, std::string> am_containers;  // MRAppMaster.amContainers
    std::map<std::string, int> task_progress;       // MRAppMaster.taskProgress
    int completed = 0;
    bool release_sent = false;
  };

  const AmState* am() const { return am_.get(); }

 protected:
  void OnStart() override;
  void OnShutdown() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  // NM daemon handlers.
  void LaunchAm(const ctsim::Message& m);
  void LaunchContainer(const ctsim::Message& m);
  void CommitGranted(const ctsim::Message& m);
  // AM handlers (no-ops unless this NM hosts the AM).
  void AmRegistered(const ctsim::Message& m);
  void AmAllocated(const ctsim::Message& m);
  void AmCommitPending(const ctsim::Message& m);
  void AmDoneCommit(const ctsim::Message& m);
  void AmTaskNodeLost(const ctsim::Message& m);

  void SendAllocate(int task);
  void MaybeSendRelease();

  std::string rm_;
  // The node heartbeat's fixed destination and verb, interned once.
  ctsim::NodeId rm_id_;
  ctsim::Symbol node_heartbeat_verb_;
  const YarnArtifacts* artifacts_;
  const YarnConfig* config_;
  JobState* job_;

  std::unique_ptr<AmState> am_;
  // NM-side running task JVMs, keyed by task-attempt id.
  struct TaskJvm {
    int task = 0;
    std::string cid;
    std::string am_node;
  };
  std::map<std::string, TaskJvm> running_;
  std::set<std::string> launched_jvms_;  // JvmTaskRegistry.launchedJVMs
};

}  // namespace ctyarn

#endif  // SRC_SYSTEMS_YARN_NODE_MANAGER_H_
