#include "src/systems/yarn/resource_manager.h"

#include "src/common/strings.h"
#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace ctyarn {

using ctsim::Message;
using ctsim::SimException;

// How long a removal's recovery actions stay in flight — the width of the
// seeded message-race window. A stale heartbeat landing inside it hits the
// race; a later one takes the benign resync path. Sub-second-scale on
// purpose: the paper's observation is that recovery windows are narrow,
// which is why blind fault injection rarely lands in them.
constexpr ctsim::Time kRemovalRaceWindowMs = 1200;

ResourceManager::ResourceManager(ctsim::Cluster* cluster, std::string id,
                                 const YarnArtifacts* artifacts, const YarnConfig* config,
                                 JobState* job)
    : Node(cluster, std::move(id)), artifacts_(artifacts), config_(config), job_(job) {
  SetCritical();
  fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->fd_timeout_ms, config_->fd_sweep_ms,
      [this](const std::string& node_id) { HandleNodeLost(node_id); });

  Handle("registerNode", [this](const Message& m) { RegisterNode(m); });
  Handle("nodeHeartbeat", [this](const Message& m) { NodeHeartbeat(m); });
  Handle("unregisterNode", [this](const Message& m) { fd_->NotifyLeft(m.Arg("node")); });
  Handle("submitApplication", [this](const Message& m) { SubmitApplication(m); });
  Handle("registerAM", [this](const Message& m) { RegisterAm(m); });
  Handle("allocate", [this](const Message& m) { Allocate(m); });
  Handle("containerProgress", [this](const Message& m) {
    ContainerEvent(m, "PROGRESS", artifacts_->points.rm_container_progress_read);
  });
  Handle("containerFinishing", [this](const Message& m) {
    ContainerEvent(m, "FINISHING", artifacts_->points.rm_container_finishing_read);
  });
  Handle("containerCompleted", [this](const Message& m) { ContainerCompleted(m); });
  Handle("releaseUnused", [this](const Message& m) { ReleaseUnused(m); });
  Handle("finishApplication", [this](const Message& m) { FinishApplication(m); });
  Handle("getClusterStatus", [this](const Message& m) { GetClusterStatus(m); });
  Handle("getNodeReport", [this](const Message& m) { GetNodeReport(m); });
  Handle("amFailed", [this](const Message& m) { AmFailed(m); });
  Handle("amHeartbeat", [this](const Message& m) {
    // The async dispatcher queues the status-update transition (YARN-9194).
    std::string app = m.Arg("app");
    std::string attempt = m.Arg("attempt");
    After(300, [this, app, attempt] { StatusUpdate(app, attempt); });
  });
}

void ResourceManager::OnStart() {
  fd_->Start();
  // The opportunistic allocator refreshes its candidate list from the node
  // map periodically; between a node loss and the next refresh the list is
  // stale — the YARN-9193 race window.
  Every(3000, [this] {
    node_list_.clear();
    for (const auto& [node_id, scheduler_node] : nodes_) {
      node_list_.push_back(node_id);
    }
  });
}

void ResourceManager::OnHandlerException(const std::string& context, const SimException& e) {
  // A NullPointerException escaping the scheduler dispatcher kills the RM
  // (and the RM is the cluster's single point of failure: YARN-9164). The
  // state-machine exceptions (InvalidState*, ResourceLeak) are logged by the
  // dispatch boundary and tolerated, as the real RM dispatcher does.
  if (e.type == "NullPointerException") {
    Abort(e.type + " in " + context + ": " + e.message);
  }
}

void ResourceManager::RegisterNode(const Message& m) {
  CT_FRAME("ResourceTrackerService.registerNodeManager");
  const std::string& node_id = m.Arg("node");
  SchedulerNode scheduler_node;
  scheduler_node.node_id = node_id;
  scheduler_node.capacity = config_->node_capacity;
  nodes_[node_id] = scheduler_node;
  CT_POST_WRITE(artifacts_->points.rm_register_node_write, node_id);
  node_list_.push_back(node_id);
  fd_->Heartbeat(node_id);
  log().Log(artifacts_->stmts.nm_registered, {m.Arg("host"), node_id});
}

void ResourceManager::SubmitApplication(const Message& m) {
  CT_FRAME("ClientRMService.submitApplication");
  RMApp app;
  app.id = AppId(++job_counter_);
  app.state = "SUBMITTED";
  app.num_tasks = std::stoi(m.Arg("tasks"));
  apps_[app.id] = app;
  log().Log(artifacts_->stmts.app_submitted, {app.id});
  CreateAttempt(app.id);
}

void ResourceManager::CreateAttempt(const std::string& app_id) {
  CT_FRAME("RMAppAttemptImpl.storeAttempt");
  RMApp& app = apps_[app_id];
  ++app.attempt_count;
  RMAttempt attempt;
  attempt.id = AppAttemptId(job_counter_, app.attempt_count);
  attempt.app = app_id;
  attempt.state = "NEW";

  // Pick the emptiest live node for the master container.
  std::string chosen;
  int best = 1 << 30;
  for (const auto& [node_id, scheduler_node] : nodes_) {
    if (cluster().IsAlive(node_id) && scheduler_node.used < best) {
      best = scheduler_node.used;
      chosen = node_id;
    }
  }
  if (chosen.empty()) {
    app.state = "FAILED";
    job_->failed = true;
    return;
  }
  attempt.node = chosen;
  attempts_[attempt.id] = attempt;
  app.current_attempt = attempt.id;

  std::string cid = NewContainerOn(chosen, attempt.id, /*task=*/-1, /*master=*/true);
  attempts_[attempt.id].master_container = cid;
  log().Log(artifacts_->stmts.master_container, {cid, chosen, attempt.id});
  // The allocation-confirm timer audits master container bookkeeping later —
  // the YARN-9165 window.
  std::string confirm_cid = cid;
  After(config_->confirm_delay_ms, [this, confirm_cid] { ConfirmContainer(confirm_cid); });
  Send(chosen, "launchAM", {{"app", app_id},
                            {"attempt", attempt.id},
                            {"cid", cid},
                            {"tasks", std::to_string(app.num_tasks)}});
}

std::string ResourceManager::NewContainerOn(const std::string& node_id,
                                            const std::string& attempt_id, int task,
                                            bool master) {
  RMContainer container;
  container.id = ContainerId(job_counter_, apps_[attempts_[attempt_id].app].attempt_count,
                             ++next_container_);
  container.node = node_id;
  container.attempt = attempt_id;
  container.task = task;
  container.state = "ALLOCATED";
  container.master = master;
  containers_[container.id] = container;
  nodes_[node_id].used += 1;
  attempts_[attempt_id].containers.push_back(container.id);
  return container.id;
}

void ResourceManager::RegisterAm(const Message& m) {
  CT_FRAME("ApplicationMasterService.registerApplicationMaster");
  const std::string& app_id = m.Arg("app");
  const std::string& attempt_id = m.Arg("attempt");
  auto it = attempts_.find(attempt_id);
  if (it == attempts_.end()) {
    return;
  }
  it->second.initialized = true;
  it->second.state = "RUNNING";
  apps_[app_id].state = "RUNNING";
  log().Log(artifacts_->stmts.am_registered, {app_id, attempt_id, it->second.node});

  // Reply with the cluster view (node headrooms) and the tasks already
  // completed by earlier attempts (recovered from the "job history").
  std::vector<std::string> node_entries;
  for (const auto& [node_id, scheduler_node] : nodes_) {
    node_entries.push_back(node_id + "=" +
                           std::to_string(scheduler_node.capacity - scheduler_node.used));
  }
  std::vector<std::string> completed;
  for (int task : apps_[app_id].completed_tasks) {
    completed.push_back(std::to_string(task));
  }
  Send(it->second.node, "am.registered",
       {{"app", app_id},
        {"attempt", attempt_id},
        {"nodes", ctcommon::Join(node_entries, ",")},
        {"completed", ctcommon::Join(completed, ",")}});
}

void ResourceManager::Allocate(const Message& m) {
  CT_FRAME("OpportunisticAMSProcessor.allocate");
  const std::string& app_id = m.Arg("app");
  const std::string& attempt_id = m.Arg("attempt");
  int task = std::stoi(m.Arg("task"));
  // The appCache.exist sanity check of Fig. 8 line 2.
  if (apps_.find(app_id) == apps_.end() || attempts_.find(attempt_id) == attempts_.end()) {
    return;
  }

  // YARN-9238: the current attempt is read without re-validating that it is
  // still the caller's attempt. If the AM node died, recovery has already
  // replaced currentAttempt with a fresh, uninitialized attempt.
  CT_PRE_READ(artifacts_->points.rm_allocate_current_attempt, apps_[app_id].current_attempt);
  const std::string current = apps_[app_id].current_attempt;
  RMAttempt& attempt = attempts_[current];
  if (!attempt.initialized) {
    throw SimException("InvalidStateException",
                       "Calling allocate on removed application attempt " + attempt_id);
  }

  // Container placement. First-time allocations of odd tasks take the
  // opportunistic path (the "enable opportunistic" configuration the paper
  // needs for the YARN bugs): a round-robin candidate from the
  // registration-order list, which the LOST path forgets to clean — and the
  // nodes map lookup is not re-validated (YARN-9193). Re-allocations and even
  // tasks take the guaranteed path, which checks candidates properly.
  const bool opportunistic = (task % 2 == 1) && m.Arg("retry") == "0";
  std::string chosen;
  if (opportunistic) {
    CT_FRAME("OpportunisticContainerAllocator.allocateNodes");
    for (size_t i = 0; i < node_list_.size() && chosen.empty(); ++i) {
      const std::string candidate = node_list_[opportunistic_rr_++ % node_list_.size()];
      CT_PRE_READ(artifacts_->points.rm_allocate_node_candidate, candidate);
      auto it = nodes_.find(candidate);
      if (it == nodes_.end()) {
        throw SimException("InvalidStateException",
                           "Allocating container on removed node " + candidate);
      }
      if (it->second.used < it->second.capacity) {
        chosen = candidate;
      }
    }
  } else {
    CT_FRAME("CapacityScheduler.allocateGuaranteed");
    int best = 1 << 30;
    for (const std::string& candidate : node_list_) {
      // Sanity-checked read: statically pruned, dynamically tolerant. The
      // guaranteed scheduler balances load across nodes.
      CT_PRE_READ(artifacts_->points.rm_allocate_node_guarded, candidate);
      auto it = nodes_.find(candidate);
      if (it == nodes_.end()) {
        continue;
      }
      if (it->second.used < it->second.capacity && it->second.used < best) {
        best = it->second.used;
        chosen = candidate;
      }
    }
  }
  if (chosen.empty()) {
    return;  // No capacity; the AM's retry timer will re-request.
  }

  std::string cid = NewContainerOn(chosen, current, task, /*master=*/false);
  log().Log(artifacts_->stmts.assigned_container, {cid, chosen});
  // The RM persists the allocation in its state store on a separate
  // dispatcher thread; that write is a static IO point (Table 8) but is not
  // driven synchronously by this workload — killing the RM there would only
  // exercise its restart-from-state-store recovery, which is out of scope.
  // The async dispatcher processes the container-launched transition later —
  // the YARN-9201 window (failure detection can beat this queue).
  After(config_->async_dispatch_ms, [this, cid] { ProcessLaunched(cid); });
  Send(attempt.node, "am.allocated",
       {{"cid", cid}, {"node", chosen}, {"task", std::to_string(task)}, {"app", app_id}});
}

void ResourceManager::ProcessLaunched(const std::string& container_id) {
  CT_FRAME("RMContainerImpl.processLaunched");
  // YARN-9201: by the time the queued LAUNCHED transition runs, the liveness
  // monitor may already have killed the container.
  CT_PRE_READ(artifacts_->points.rm_internal_launched_read, container_id);
  auto it = containers_.find(container_id);
  if (it == containers_.end()) {
    return;
  }
  if (it->second.state == "KILLED") {
    throw SimException("InvalidStateTransitionException",
                       "Invalid event LAUNCHED at KILLED for container " + container_id);
  }
  if (it->second.state == "ALLOCATED") {
    it->second.state = "RUNNING";
  }
}

void ResourceManager::ConfirmContainer(const std::string& container_id) {
  CT_FRAME("AbstractYarnScheduler.confirmContainer");
  // YARN-9165: the confirm timer assumes the container still exists, but the
  // LOST path erases master containers outright.
  CT_PRE_READ(artifacts_->points.rm_confirm_container, container_id);
  auto it = containers_.find(container_id);
  if (it == containers_.end()) {
    throw SimException("InvalidStateException",
                       "Scheduling the removed container " + container_id);
  }
  if (it->second.state == "ALLOCATED") {
    it->second.state = "RUNNING";
  }
}

void ResourceManager::StatusUpdate(const std::string& app_id, const std::string& attempt_id) {
  CT_FRAME("RMAppImpl.statusUpdate");
  // YARN-9194: an AM heartbeat queued a STATUS_UPDATE for the attempt that
  // sent it; if the attempt fails between enqueue and processing (the AM node
  // died), the state machine receives the event in state FAILED.
  CT_PRE_READ(artifacts_->points.rm_app_status_read, app_id);
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    return;
  }
  auto attempt = attempts_.find(attempt_id);
  if (attempt != attempts_.end() && attempt->second.state == "FAILED") {
    throw SimException(
        "InvalidStateTransitionException",
        "Invalid event STATUS_UPDATE for current state FAILED of ApplicationAttempt " +
            attempt_id);
  }
}

void ResourceManager::ContainerEvent(const Message& m, const std::string& event, int point_id) {
  CT_FRAME("ContainerImpl.handle");
  const std::string& cid = m.Arg("cid");
  // YARN-8650: container events race with the LOST transition to KILLED.
  CT_PRE_READ(point_id, cid);
  auto it = containers_.find(cid);
  if (it == containers_.end()) {
    return;
  }
  if (it->second.state == "KILLED") {
    throw SimException("InvalidStateTransitionException", "Invalid event " + event +
                                                              " for current state KILLED of Container " +
                                                              cid);
  }
}

void ResourceManager::ContainerCompleted(const Message& m) {
  CT_FRAME("CapacityScheduler.containerCompleted");
  const std::string& cid = m.Arg("cid");
  auto it = containers_.find(cid);
  if (it == containers_.end() || it->second.state == "KILLED" ||
      it->second.state == "COMPLETED") {
    return;  // Already cleaned up by the LOST path.
  }
  if (it->second.task >= 0) {
    apps_[attempts_[it->second.attempt].app].completed_tasks.insert(it->second.task);
  }
  CompleteOnNode(cid, it->second.node);
}

void ResourceManager::CompleteOnNode(const std::string& container_id,
                                     std::string node_id) {
  CT_FRAME("AbstractYarnScheduler.completeContainer");
  // YARN-9164 (Fig. 10): getScheNode's nodes.get is promoted to this call
  // site; nothing re-checks that the node survived, and the NPE below kills
  // the RM dispatcher — cluster down.
  CT_PRE_READ(artifacts_->points.rm_complete_container_site, node_id);
  auto node_it = nodes_.find(node_id);
  if (node_it == nodes_.end()) {
    throw SimException("NullPointerException",
                       "completeContainer on removed node " + node_id);
  }
  node_it->second.used -= 1;
  if (node_it->second.used < 0) {
    // Accounting invariant: a double release leaks (negative) resources —
    // the YARN-8649 symptom.
    throw SimException("ResourceLeakException",
                       "Resource Leak due to removed container " + container_id);
  }
  auto container_it = containers_.find(container_id);
  if (container_it != containers_.end()) {
    container_it->second.state = "COMPLETED";
    auto attempt_it = attempts_.find(container_it->second.attempt);
    if (attempt_it != attempts_.end()) {
      std::erase(attempt_it->second.containers, container_id);
    }
  }
}

void ResourceManager::ReleaseUnused(const Message& m) {
  CT_FRAME("SchedulerApplicationAttempt.releaseContainers");
  const std::string& attempt_id = m.Arg("attempt");
  if (attempts_.find(attempt_id) == attempts_.end()) {
    return;
  }
  // YARN-9248: between this read and the loop below, recovery may have
  // RELEASED the attempt's containers already.
  CT_PRE_READ(artifacts_->points.rm_release_attempt_read, attempt_id);
  auto it = attempts_.find(attempt_id);
  if (it == attempts_.end()) {
    return;
  }
  std::vector<std::string> container_ids = it->second.containers;
  for (const std::string& cid : container_ids) {
    auto container_it = containers_.find(cid);
    if (container_it == containers_.end()) {
      continue;
    }
    if (container_it->second.state == "RELEASED") {
      throw SimException("InvalidStateTransitionException",
                         "Invalid event RELEASE for current state RELEASED of Container " + cid);
    }
    if (container_it->second.state == "ALLOCATED" && !container_it->second.master) {
      container_it->second.state = "RELEASED";
      nodes_[container_it->second.node].used -= 1;
    }
  }
}

void ResourceManager::FinishApplication(const Message& m) {
  CT_FRAME("RMAppImpl.finishApplication");
  const std::string& app_id = m.Arg("app");
  auto it = apps_.find(app_id);
  if (it == apps_.end() || it->second.state == "FINISHED" || it->second.state == "FINISHING") {
    return;
  }
  const std::string attempt_id = it->second.current_attempt;
  // YARN-8649: the app is read and only *then* marked FINISHING. If the AM
  // node dies in between, recovery still creates a fresh attempt (with a new
  // master container) for an application that is already finishing; the
  // cleanup below only knows about the attempt it captured, so the new
  // attempt's resources are never released.
  CT_PRE_READ(artifacts_->points.rm_finish_app_read, app_id);
  if (apps_.find(app_id) == apps_.end()) {
    return;
  }
  apps_[app_id].state = "FINISHING";
  auto attempt_it = attempts_.find(attempt_id);
  if (attempt_it != attempts_.end()) {
    std::vector<std::string> remaining = attempt_it->second.containers;
    for (const std::string& cid : remaining) {
      auto container_it = containers_.find(cid);
      if (container_it == containers_.end() || container_it->second.state == "COMPLETED") {
        continue;
      }
      CompleteOnNode(cid, container_it->second.node);
    }
    attempt_it->second.state = "FINISHED";
  }
  apps_[app_id].state = "FINISHED";
  log().Log(artifacts_->stmts.app_finished, {app_id, "FINISHED"});
  // Final accounting audit: every container of a finished application must
  // have been returned to the pool.
  for (const auto& [cid, container] : containers_) {
    auto owner = attempts_.find(container.attempt);
    if (owner != attempts_.end() && owner->second.app == app_id &&
        (container.state == "ALLOCATED" || container.state == "RUNNING")) {
      throw SimException("ResourceLeakException",
                         "Resource Leak due to removed container " + cid);
    }
  }
}

void ResourceManager::GetClusterStatus(const Message& m) {
  CT_FRAME("ClientRMService.getClusterStatus");
  for (const auto& [app_id, app] : apps_) {
    // Benign armed point: apps are never removed, so this read survives any
    // recovery (the curl workload exercises it).
    CT_PRE_READ(artifacts_->points.rm_cluster_status_read, app_id);
    auto it = apps_.find(app_id);
    if (it != apps_.end() && !m.from.empty()) {
      // Reply path elided; the query is about exercising the read.
    }
  }
}

void ResourceManager::GetNodeReport(const Message& m) {
  CT_FRAME("NodeListManager.getNodeReport");
  const std::string& node_id = m.Arg("node");
  // Promoted getScheNode site on the web path: the developer wrapped it in a
  // try/catch rather than a null check, so the static pruning keeps it, but
  // the exception never escapes — the benign dynamic point of §4.1.2.
  CT_PRE_READ(artifacts_->points.rm_node_report_site, node_id);
  try {
    auto it = nodes_.find(node_id);
    if (it == nodes_.end()) {
      throw SimException("NullPointerException", "node report for removed node " + node_id);
    }
  } catch (const SimException&) {
    log().Warn("Node report unavailable for {}", {node_id}, "NodeListManager.getNodeReport");
  }
}

void ResourceManager::AmFailed(const Message& m) {
  CT_FRAME("RMAppAttemptImpl.amFailed");
  AttemptFailed(m.Arg("attempt"));
}

void ResourceManager::NodeHeartbeat(const Message& m) {
  const std::string& node_id = m.Arg("node");
  auto removed = removed_nodes_.find(node_id);
  if (removed != removed_nodes_.end()) {
    const bool recovering =
        cluster().loop().Now() - removed->second <= kRemovalRaceWindowMs;
    removed_nodes_.erase(removed);
    if (recovering) {
      // The tracker applies a status update from a node the liveness monitor
      // already expired while the container sweep is still in flight,
      // instead of forcing a resync (YARN-9301): the re-registration race
      // only a partition that outlives the expiry and then promptly heals
      // can produce.
      throw SimException("InvalidStateTransitionException",
                         "Heartbeat from removed node " + node_id + " applied without resync");
    }
    // Recovery already settled: the stale heartbeat takes the benign resync
    // path and the node re-registers from scratch.
  }
  fd_->Heartbeat(node_id);
}

void ResourceManager::HandleNodeLost(const std::string& node_id) {
  CT_FRAME("NodesListManager.handleNodeLost");
  log().Log(artifacts_->stmts.node_lost, {node_id});
  nodes_.erase(node_id);  // note: node_list_ is NOT cleaned (YARN-9193)
  removed_nodes_[node_id] = cluster().loop().Now();

  // Sweep containers hosted on the lost node.
  std::vector<std::string> lost_masters;
  std::vector<std::string> lost_tasks;
  for (auto& [cid, container] : containers_) {
    if (container.node != node_id || container.state == "COMPLETED" ||
        container.state == "KILLED" || container.state == "RELEASED") {
      continue;
    }
    if (container.master) {
      lost_masters.push_back(cid);
    } else {
      lost_tasks.push_back(cid);
    }
  }
  for (const std::string& cid : lost_tasks) {
    RMContainer& container = containers_[cid];
    container.state = "KILLED";  // tombstone (YARN-9201 / YARN-8650 substrate)
    auto attempt_it = attempts_.find(container.attempt);
    if (attempt_it != attempts_.end()) {
      std::erase(attempt_it->second.containers, cid);
      // Tell the (possibly remote) AM so the task is rescheduled.
      if (cluster().IsAlive(attempt_it->second.node)) {
        Send(attempt_it->second.node, "am.taskNodeLost",
             {{"cid", cid}, {"task", std::to_string(container.task)}});
      }
    }
  }
  for (const std::string& cid : lost_masters) {
    std::string attempt_id = containers_[cid].attempt;
    containers_.erase(cid);  // masters are erased outright (YARN-9165 substrate)
    AttemptFailed(attempt_id);
  }
  // Update AMs' cluster views (YARN-5918 substrate: the AM-side cache loses
  // the node).
  for (const auto& [attempt_id, attempt] : attempts_) {
    if (attempt.state == "RUNNING" && cluster().IsAlive(attempt.node)) {
      Send(attempt.node, "am.nodeRemoved", {{"node", node_id}});
    }
  }
}

void ResourceManager::AttemptFailed(const std::string& attempt_id) {
  CT_FRAME("RMAppAttemptImpl.attemptFailed");
  auto it = attempts_.find(attempt_id);
  if (it == attempts_.end() || it->second.state == "FAILED" || it->second.state == "FINISHED") {
    return;
  }
  it->second.state = "FAILED";
  // Release whatever the attempt still holds (list intentionally kept:
  // YARN-8649's stale-container-list substrate).
  for (const std::string& cid : it->second.containers) {
    // The sweep completes each leftover container through the scheduler, so
    // the YARN-9164 site also fires under the attempt-failure stack — the
    // context the static enumeration predicts but the fixed script never
    // drives (it takes a node loss while an AM holds containers). The id is
    // read before the lookup: a master container erased by handleNodeLost is
    // still on the attempt's list when the sweep walks it.
    CT_FRAME("AbstractYarnScheduler.completeContainer");
    CT_PRE_READ(artifacts_->points.rm_complete_container_site, cid);
    auto container_it = containers_.find(cid);
    if (container_it == containers_.end()) {
      continue;
    }
    if (container_it->second.state == "ALLOCATED" || container_it->second.state == "RUNNING") {
      container_it->second.state = "RELEASED";
      auto node_it = nodes_.find(container_it->second.node);
      if (node_it != nodes_.end()) {
        node_it->second.used -= 1;
      }
    }
  }

  auto app_it = apps_.find(it->second.app);
  if (app_it == apps_.end() || app_it->second.state == "FINISHING" ||
      app_it->second.state == "FINISHED") {
    return;
  }
  if (app_it->second.attempt_count >= config_->max_app_attempts) {
    app_it->second.state = "FAILED";
    log().Log(artifacts_->stmts.app_finished, {app_it->second.id, "FAILED"});
    job_->failed = true;
    return;
  }
  CreateAttempt(app_it->second.id);
}

}  // namespace ctyarn
