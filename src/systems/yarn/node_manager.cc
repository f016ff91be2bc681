#include "src/systems/yarn/node_manager.h"

#include "src/common/strings.h"
#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace ctyarn {

using ctsim::Message;
using ctsim::SimException;

NodeManager::NodeManager(ctsim::Cluster* cluster, std::string id, std::string rm,
                         const YarnArtifacts* artifacts, const YarnConfig* config, JobState* job)
    : Node(cluster, std::move(id)),
      rm_(std::move(rm)),
      rm_id_(cluster->Intern(rm_)),
      node_heartbeat_verb_(cluster->Intern("nodeHeartbeat")),
      artifacts_(artifacts),
      config_(config),
      job_(job) {
  Handle("launchAM", [this](const Message& m) { LaunchAm(m); });
  Handle("launchContainer", [this](const Message& m) { LaunchContainer(m); });
  Handle("task.commitGranted", [this](const Message& m) { CommitGranted(m); });
  Handle("killTask", [this](const Message& m) { running_.erase(m.Arg("ta")); });
  Handle("am.registered", [this](const Message& m) { AmRegistered(m); });
  Handle("am.allocated", [this](const Message& m) { AmAllocated(m); });
  Handle("am.commitPending", [this](const Message& m) { AmCommitPending(m); });
  Handle("am.doneCommit", [this](const Message& m) { AmDoneCommit(m); });
  Handle("am.taskNodeLost", [this](const Message& m) { AmTaskNodeLost(m); });
  Handle("am.taskInitializing", [this](const Message& m) {
    if (am_ != nullptr) {
      am_->tasks[std::stoi(m.Arg("task"))].state = "INITIALIZING";
    }
  });
  Handle("am.taskStarted", [this](const Message& m) {
    if (am_ != nullptr) {
      am_->tasks[std::stoi(m.Arg("task"))].state = "RUNNING";
    }
  });
  Handle("am.taskProgress", [this](const Message& m) {
    if (am_ == nullptr) {
      return;
    }
    CT_FRAME("MRAppMaster.statusUpdate");
    const std::string& ta = m.Arg("ta");
    am_->task_progress[ta] = 50;
    // Benign post-write: killing the task's node here just reschedules the
    // attempt.
    CT_POST_WRITE(artifacts_->points.am_task_progress_write, ta);
  });
  Handle("am.nodeRemoved", [this](const Message& m) {
    if (am_ != nullptr) {
      am_->am_nodes.erase(m.Arg("node"));
    }
  });
}

void NodeManager::OnStart() {
  Send(rm_, "registerNode", {{"node", id()}, {"host", host()}});
  Every(config_->heartbeat_ms,
        [this] { Send(rm_id_, node_heartbeat_verb_, {{"node", id()}}); });
}

void NodeManager::OnShutdown() {
  // The graceful path of the paper's shutdown scripts: the cluster learns of
  // the departure without waiting out the failure detector.
  Send(rm_, "unregisterNode", {{"node", id()}});
}

void NodeManager::OnHandlerException(const std::string& context, const SimException& e) {
  if (context.rfind("am.", 0) == 0) {
    // The AM JVM died; the NM daemon survives and the RM starts a new
    // attempt (MR-7178's "causing abort" path).
    if (am_ != nullptr) {
      std::string attempt = am_->attempt;
      am_.reset();
      Send(rm_, "amFailed", {{"attempt", attempt}});
    }
    return;
  }
  Abort(e.type + " in " + context + ": " + e.message);
}

void NodeManager::LaunchAm(const Message& m) {
  const std::string app = m.Arg("app");
  const std::string attempt = m.Arg("attempt");
  const int num_tasks = std::stoi(m.Arg("tasks"));
  After(config_->am_init_ms, [this, app, attempt, num_tasks] {
    am_ = std::make_unique<AmState>();
    am_->app = app;
    am_->attempt = attempt;
    am_->num_tasks = num_tasks;
    Send(rm_, "registerAM", {{"app", app}, {"attempt", attempt}});
  });
}

void NodeManager::AmRegistered(const Message& m) {
  if (am_ == nullptr || m.Arg("attempt") != am_->attempt) {
    return;
  }
  CT_FRAME("MRAppMaster.serviceStart");
  for (const auto& entry : ctcommon::SplitSkipEmpty(m.Arg("nodes"), ',')) {
    auto pieces = ctcommon::Split(entry, '=');
    if (pieces.size() == 2) {
      am_->am_nodes[pieces[0]] = std::stoi(pieces[1]);
    }
  }
  for (const auto& completed : ctcommon::SplitSkipEmpty(m.Arg("completed"), ',')) {
    int task = std::stoi(completed);
    am_->tasks[task].index = task;
    am_->tasks[task].state = "DONE";
    ++am_->completed;
  }
  for (int task = 0; task < am_->num_tasks; ++task) {
    if (am_->tasks.count(task) > 0 && am_->tasks[task].state == "DONE") {
      continue;
    }
    am_->tasks[task].index = task;
    After(config_->allocate_spacing_ms * (task + 1), [this, task] { SendAllocate(task); });
  }
  // AM heartbeat: feeds the RM's async STATUS_UPDATE queue (YARN-9194).
  std::string attempt = am_->attempt;
  Every(config_->heartbeat_ms, [this, attempt] {
    if (am_ != nullptr && am_->attempt == attempt && am_->completed < am_->num_tasks) {
      Send(rm_, "amHeartbeat", {{"app", am_->app}, {"attempt", attempt}});
    }
  });
  if (am_->completed >= am_->num_tasks) {
    // Everything was recovered as done; finish immediately.
    job_->done = true;
    Send(rm_, "finishApplication", {{"app", am_->app}});
  }
}

void NodeManager::SendAllocate(int task) {
  if (am_ == nullptr) {
    return;
  }
  TaskRecord& record = am_->tasks[task];
  if (record.state != "PENDING") {
    return;
  }
  record.state = "REQUESTED";
  Send(rm_, "allocate",
       {{"app", am_->app},
        {"attempt", am_->attempt},
        {"task", std::to_string(task)},
        {"retry", std::to_string(record.retry)}});
  // Allocation retry: a failed or lost request is re-issued.
  After(5000, [this, task] {
    if (am_ != nullptr && am_->tasks[task].state == "REQUESTED") {
      am_->tasks[task].state = "PENDING";
      SendAllocate(task);
    }
  });
}

void NodeManager::AmAllocated(const Message& m) {
  if (am_ == nullptr) {
    return;
  }
  CT_FRAME("RMContainerAllocator.assigned");
  int task = std::stoi(m.Arg("task"));
  const std::string& cid = m.Arg("cid");
  const std::string& node = m.Arg("node");
  TaskRecord& record = am_->tasks[task];
  if (record.state == "DONE" || record.state == "RUNNING" ||
      record.state == "COMMIT_PENDING") {
    return;  // stale allocation
  }
  std::string ta = TaskAttemptId(1, task, record.retry);
  log().Log(artifacts_->stmts.container_to_attempt, {cid, ta});
  am_->am_containers[ta] = cid;

  // YARN-5918 (Fig. 2): read the cached node headroom. Trunk carries the fix
  // (a check); the legacy build dereferences blindly and the AM dies with a
  // NullPointerException when the node vanished during the wait.
  CT_PRE_READ(artifacts_->points.am_node_resource_read, node);
  if (artifacts_->mode == YarnMode::kLegacy) {
    if (am_->am_nodes.find(node) == am_->am_nodes.end()) {
      throw SimException("NullPointerException", "resources of removed node " + node);
    }
  } else {
    auto it = am_->am_nodes.find(node);
    if (it == am_->am_nodes.end()) {
      log().Warn("Skipping allocation on removed node {}", {node}, "MRAppMaster.getNodeResource");
      record.state = "PENDING";
      record.retry += 1;
      After(500, [this, task] { SendAllocate(task); });
      return;
    }
  }

  record.state = "LAUNCHED";
  record.node = node;
  record.cid = cid;
  record.ta = ta;
  Send(node, "launchContainer",
       {{"cid", cid},
        {"task", std::to_string(task)},
        {"ta", ta},
        {"retry", std::to_string(record.retry)},
        {"am", id()}});
}

void NodeManager::LaunchContainer(const Message& m) {
  CT_FRAME("ContainerLaunch.launchJvm");
  int task = std::stoi(m.Arg("task"));
  int retry = std::stoi(m.Arg("retry"));
  const std::string ta = m.Arg("ta");
  const std::string cid = m.Arg("cid");
  const std::string am_node = m.Arg("am");

  std::string jvm = JvmId(1, task, retry);
  running_[ta] = TaskJvm{task, cid, am_node};
  CT_POST_WRITE(artifacts_->points.nm_jvm_record_write, jvm);
  log().Log(artifacts_->stmts.jvm_given_task, {jvm, ta});
  // Container launch log write: the IO point inside the YARN-9201 window
  // (the RM's async LAUNCHED transition is still queued).
  CT_IO_BEGIN(artifacts_->io.nm_launch_log_io);
  CT_IO_END(artifacts_->io.nm_launch_log_io);

  After(config_->task_start_delay_ms, [this, task, ta, cid, am_node] {
    if (running_.find(ta) == running_.end()) {
      return;
    }
    CT_FRAME("TaskAttemptImpl.initialize");
    Send(am_node, "am.taskInitializing", {{"task", std::to_string(task)}, {"ta", ta}});
    launched_jvms_.insert(ta);
    // MR-7178: the attempt registers itself, then spends the whole init
    // window vulnerable — a crash here aborts the AM's bookkeeping.
    CT_POST_WRITE(artifacts_->points.nm_task_init_write, ta);

    After(config_->task_init_ms, [this, task, ta, cid, am_node] {
      if (running_.find(ta) == running_.end()) {
        return;
      }
      Send(am_node, "am.taskStarted", {{"task", std::to_string(task)}, {"ta", ta}});
      After(config_->task_run_ms / 2, [this, task, ta, cid, am_node] {
        if (running_.find(ta) == running_.end()) {
          return;
        }
        Send(rm_, "containerProgress", {{"cid", cid}});
        Send(am_node, "am.taskProgress", {{"task", std::to_string(task)}, {"ta", ta}});
      });
      After(config_->task_run_ms, [this, task, ta, cid, am_node] {
        if (running_.find(ta) == running_.end()) {
          return;
        }
        Send(rm_, "containerFinishing", {{"cid", cid}});
        Send(am_node, "am.commitPending", {{"task", std::to_string(task)}, {"ta", ta}});
      });
    });
  });
}

void NodeManager::AmCommitPending(const Message& m) {
  if (am_ == nullptr) {
    return;
  }
  CT_FRAME("TaskAttemptListener.commitPending");
  int task = std::stoi(m.Arg("task"));
  const std::string& ta = m.Arg("ta");
  auto it = am_->commit.find(task);
  if (it != am_->commit.end() && it->second != ta) {
    // MR-3858 (Fig. 3): the commit slot still holds the crashed attempt, so
    // every fresh attempt flunks the check, is killed, and the job spins
    // forever. (Trunk clears the slot in AmTaskNodeLost, closing the bug.)
    log().Warn("Commit conflict for task {} attempt {}", {std::to_string(task), ta},
               "TaskAttemptListener.commitPending");
    Send(m.from, "killTask", {{"ta", ta}});
    am_->tasks[task].retry += 1;
    am_->tasks[task].state = "PENDING";
    After(500, [this, task] { SendAllocate(task); });
    return;
  }
  am_->commit[task] = ta;
  CT_POST_WRITE(artifacts_->points.am_commit_write, ta);
  am_->tasks[task].state = "COMMIT_PENDING";
  MaybeSendRelease();
  Send(m.from, "task.commitGranted", {{"task", std::to_string(task)}, {"ta", ta}});
}

void NodeManager::MaybeSendRelease() {
  if (am_ == nullptr || am_->release_sent) {
    return;
  }
  int in_commit_or_done = am_->completed;
  for (const auto& [index, record] : am_->tasks) {
    if (record.state == "COMMIT_PENDING") {
      ++in_commit_or_done;
    }
  }
  if (in_commit_or_done >= am_->num_tasks) {
    am_->release_sent = true;
    Send(rm_, "releaseUnused", {{"attempt", am_->attempt}});
  }
}

void NodeManager::CommitGranted(const Message& m) {
  CT_FRAME("FileOutputCommitter.writeOutput");
  const std::string ta = m.Arg("ta");
  auto it = running_.find(ta);
  if (it == running_.end()) {
    return;
  }
  // Task output write: the IO point between commitPending and doneCommit —
  // the MR-3858 window the IO baseline lands in on the legacy build.
  CT_IO_BEGIN(artifacts_->io.nm_task_output_io);
  CT_IO_END(artifacts_->io.nm_task_output_io);
  int task = it->second.task;
  std::string am_node = it->second.am_node;
  After(config_->commit_io_ms, [this, task, ta, am_node] {
    if (running_.find(ta) == running_.end()) {
      return;
    }
    Send(am_node, "am.doneCommit", {{"task", std::to_string(task)}, {"ta", ta}});
  });
}

void NodeManager::AmDoneCommit(const Message& m) {
  if (am_ == nullptr) {
    return;
  }
  CT_FRAME("TaskAttemptListener.done");
  int task = std::stoi(m.Arg("task"));
  const std::string& ta = m.Arg("ta");
  TaskRecord& record = am_->tasks[task];
  if (record.state == "DONE") {
    return;
  }
  // Benign armed point: the container entry survives recovery because only
  // this handler removes it.
  CT_PRE_READ(artifacts_->points.am_containers_done_read, ta);
  auto it = am_->am_containers.find(ta);
  std::string cid = it == am_->am_containers.end() ? record.cid : it->second;
  record.state = "DONE";
  ++am_->completed;
  log().Log(artifacts_->stmts.task_committed, {TaskId(1, task), ta});
  Send(rm_, "containerCompleted", {{"cid", cid}});
  if (am_->completed >= am_->num_tasks) {
    job_->done = true;
    Send(rm_, "finishApplication", {{"app", am_->app}});
  }
}

void NodeManager::AmTaskNodeLost(const Message& m) {
  if (am_ == nullptr) {
    return;
  }
  CT_FRAME("RMContainerAllocator.taskNodeLost");
  int task = std::stoi(m.Arg("task"));
  TaskRecord& record = am_->tasks[task];
  if (record.state == "DONE") {
    return;
  }
  if (record.state == "INITIALIZING") {
    // MR-7178: recovery cannot cope with an attempt that died mid-init.
    throw SimException("IllegalStateException",
                       "Shutdown during initialization causing abort of task attempt " +
                           record.ta);
  }
  if (artifacts_->mode == YarnMode::kTrunk) {
    am_->commit.erase(task);  // the MR-3858 fix
  }
  record.retry += 1;
  record.state = "PENDING";
  After(500, [this, task] { SendAllocate(task); });
}

}  // namespace ctyarn
