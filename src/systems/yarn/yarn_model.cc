// Builds the mini-YARN program model: the static structure CrashTuner's
// analyses consume. Class, field and package names follow the real
// Hadoop2/Yarn code base (Table 2 of the paper lists many of them).
#include "src/systems/yarn/yarn_defs.h"

#include <map>

#include "src/common/strings.h"
#include "src/logging/statement.h"
#include "src/model/catalog.h"

namespace ctyarn {

namespace {

using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::IoMethodDecl;
using ctmodel::IoPointDecl;
using ctmodel::LogArg;
using ctmodel::LogBinding;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

void AddType(ProgramModel* model, const std::string& name, const std::string& supertype = "",
             std::vector<std::string> elements = {}, bool closeable = false) {
  TypeDecl type;
  type.name = name;
  type.supertype = supertype;
  type.element_types = std::move(elements);
  type.closeable = closeable;
  model->AddType(type);
}

void AddField(ProgramModel* model, const std::string& clazz, const std::string& name,
              const std::string& type, bool ctor_only = false) {
  FieldDecl field;
  field.clazz = clazz;
  field.name = name;
  field.type = type;
  field.set_only_in_constructor = ctor_only;
  model->AddField(field);
}

struct PointSpec {
  std::string field;
  AccessKind kind = AccessKind::kRead;
  std::string clazz;
  std::string method;
  int line = 0;
  std::string op{};
  std::string context{};  // anchor override when the hook fires in another frame
  bool unused = false;
  bool sanity = false;
  bool returned = false;
  bool executable = true;
};

int AddPoint(ProgramModel* model, const PointSpec& spec) {
  AccessPointDecl point;
  point.field_id = spec.field;
  point.kind = spec.kind;
  point.clazz = spec.clazz;
  point.method = spec.method;
  point.line = spec.line;
  point.collection_op = spec.op;
  point.context_method = spec.context;
  point.value_unused = spec.unused;
  point.sanity_checked = spec.sanity;
  point.returned_directly = spec.returned;
  point.executable = spec.executable;
  return model->AddAccessPoint(point);
}

void AddMethod(ProgramModel* model, const std::string& clazz, const std::string& name,
               bool entry = false) {
  ctmodel::MethodDecl method;
  method.clazz = clazz;
  method.name = name;
  method.entry_point = entry;
  model->AddMethod(method);
}

void AddCall(ProgramModel* model, const std::string& caller, const std::string& callee,
             ctmodel::CallKind kind = ctmodel::CallKind::kStatic) {
  model->AddCallEdge({caller, callee, kind});
}

void BuildTypes(ProgramModel* model) {
  ctmodel::AddBaseTypes(model);
  // Enum state types are base types ("Enum" in the paper's exclusion list).
  {
    TypeDecl state;
    state.name = "yarn.server.resourcemanager.rmapp.RMAppState";
    state.is_base = true;
    model->AddType(state);
  }

  // Node group (Table 2).
  AddType(model, "yarn.api.records.NodeId");
  AddType(model, "java.net.InetSocketAddress");
  AddType(model, "yarn.api.records.impl.pb.NodeIdPBImpl", "yarn.api.records.NodeId");
  // App attempt group.
  AddType(model, "yarn.api.records.ApplicationAttemptId");
  AddType(model, "yarn.server.scheduler.SchedulerApplicationAttempt");
  AddType(model, "yarn.server.resourcemanager.rmapp.attempt.RMAppAttemptImpl");
  AddType(model, "yarn.api.records.impl.pb.ApplicationAttemptIdPBImpl",
          "yarn.api.records.ApplicationAttemptId");
  // Application group.
  AddType(model, "yarn.api.records.ApplicationId");
  AddType(model, "yarn.server.resourcemanager.rmapp.RMAppImpl");
  AddType(model, "yarn.server.resourcemanager.Application");
  AddType(model, "yarn.server.nodemanager.containermanager.application.ApplicationImpl");
  AddType(model, "yarn.api.records.impl.pb.ApplicationIdPBImpl", "yarn.api.records.ApplicationId");
  // Container group.
  AddType(model, "yarn.api.records.ContainerId");
  AddType(model, "yarn.api.records.Container");
  AddType(model, "yarn.server.nodemanager.containermanager.container.ContainerImpl");
  AddType(model, "yarn.server.resourcemanager.rmcontainer.RMContainerImpl");
  AddType(model, "yarn.api.records.impl.pb.ContainerPBImpl", "yarn.api.records.Container");
  AddType(model, "yarn.api.records.impl.pb.ContainerIdPBImpl", "yarn.api.records.ContainerId");
  // Task attempt group.
  AddType(model, "mapreduce.v2.api.records.TaskAttemptId");
  AddType(model, "mapreduce.MapTaskAttemptImpl");
  AddType(model, "mapreduce.ReduceTaskAttemptImpl");
  AddType(model, "mapreduce.v2.app.job.impl.TaskAttemptImpl");
  AddType(model, "mapreduce.v2.api.records.impl.pb.TaskAttemptIdPBImpl",
          "mapreduce.v2.api.records.TaskAttemptId");
  // Task / JVM.
  AddType(model, "mapreduce.v2.api.records.TaskId");
  AddType(model, "mapred.JVMId");
  // Scheduler-internal value type (not meta-info by itself).
  AddType(model, "yarn.server.scheduler.SchedulerNode");
  // Scheduler class hierarchy: lets virtual calls against the abstract
  // scheduler dispatch to the capacity scheduler in the call graph.
  AddType(model, "AbstractYarnScheduler");
  AddType(model, "CapacityScheduler", "AbstractYarnScheduler");

  // Collections over the above.
  AddType(model, "HashMap<NodeId,SchedulerNode>", "",
          {"yarn.api.records.NodeId", "yarn.server.scheduler.SchedulerNode"});
  AddType(model, "HashMap<ContainerId,RMContainer>", "",
          {"yarn.api.records.ContainerId", "yarn.server.resourcemanager.rmcontainer.RMContainerImpl"});
  AddType(model, "HashMap<ApplicationId,RMApp>", "",
          {"yarn.api.records.ApplicationId", "yarn.server.resourcemanager.rmapp.RMAppImpl"});
  AddType(model, "HashMap<ApplicationAttemptId,SchedulerApplicationAttempt>", "",
          {"yarn.api.records.ApplicationAttemptId",
           "yarn.server.scheduler.SchedulerApplicationAttempt"});
  AddType(model, "List<NodeId>", "", {"yarn.api.records.NodeId"});
  AddType(model, "HashMap<TaskId,TaskAttemptId>", "",
          {"mapreduce.v2.api.records.TaskId", "mapreduce.v2.api.records.TaskAttemptId"});
  AddType(model, "HashMap<TaskAttemptId,ContainerId>", "",
          {"mapreduce.v2.api.records.TaskAttemptId", "yarn.api.records.ContainerId"});
  AddType(model, "HashMap<NodeId,Integer>", "",
          {"yarn.api.records.NodeId", "java.lang.Integer"});
  AddType(model, "Set<TaskAttemptId>", "", {"mapreduce.v2.api.records.TaskAttemptId"});
  AddType(model, "HashMap<JVMId,String>", "", {"mapred.JVMId", "java.lang.String"});

  // IO classes (Table 8): Closeable implementations with read/write methods.
  AddType(model, "org.apache.hadoop.fs.FSDataOutputStream", "", {}, /*closeable=*/true);
  AddType(model, "yarn.server.resourcemanager.recovery.FileSystemRMStateStore", "", {},
          /*closeable=*/true);
}

void BuildFields(ProgramModel* model) {
  AddField(model, "AbstractYarnScheduler", "nodes", "HashMap<NodeId,SchedulerNode>");
  AddField(model, "AbstractYarnScheduler", "containers", "HashMap<ContainerId,RMContainer>");
  AddField(model, "RMContextImpl", "apps", "HashMap<ApplicationId,RMApp>");
  AddField(model, "RMContextImpl", "attempts",
           "HashMap<ApplicationAttemptId,SchedulerApplicationAttempt>");
  AddField(model, "OpportunisticContainerAllocator", "nodeList", "List<NodeId>");
  AddField(model, "RMAppImpl", "currentAttempt", "yarn.api.records.ApplicationAttemptId");
  AddField(model, "RMAppImpl", "state", "yarn.server.resourcemanager.rmapp.RMAppState");
  AddField(model, "NMContext", "nodeId", "yarn.api.records.NodeId");
  AddField(model, "NMContext", "hostName", "java.lang.String");
  AddField(model, "MRAppMaster", "commit", "HashMap<TaskId,TaskAttemptId>");
  AddField(model, "MRAppMaster", "amContainers", "HashMap<TaskAttemptId,ContainerId>");
  AddField(model, "MRAppMaster", "amNodes", "HashMap<NodeId,Integer>");
  AddField(model, "MRAppMaster", "taskProgress", "HashMap<TaskAttemptId,ContainerId>");
  AddField(model, "JvmTaskRegistry", "launchedJVMs", "Set<TaskAttemptId>");
  AddField(model, "ContainerLaunch", "jvmRecords", "HashMap<JVMId,String>");
  // Constructor-only id fields: exercise the containing-class rule of
  // Definition 2 (RMContainerImpl is the paper's own example).
  AddField(model, "yarn.server.resourcemanager.rmcontainer.RMContainerImpl", "containerId",
           "yarn.api.records.ContainerId", /*ctor_only=*/true);
  AddField(model, "yarn.server.scheduler.SchedulerApplicationAttempt", "attemptId",
           "yarn.api.records.ApplicationAttemptId", /*ctor_only=*/true);
  AddField(model, "yarn.server.resourcemanager.rmapp.RMAppImpl", "applicationId",
           "yarn.api.records.ApplicationId", /*ctor_only=*/true);
  AddField(model, "mapreduce.v2.app.job.impl.TaskAttemptImpl", "attemptId",
           "mapreduce.v2.api.records.TaskAttemptId", /*ctor_only=*/true);
}

void BuildStatements(YarnArtifacts* artifacts) {
  auto& registry = ctlog::StatementRegistry::Instance();
  auto& stmts = artifacts->stmts;
  auto& model = artifacts->model;

  auto bind = [&](int id, std::vector<LogArg> args) {
    LogBinding binding;
    binding.statement_id = id;
    binding.args = std::move(args);
    model.BindLog(binding);
  };

  stmts.nm_registered = registry.Register(ctlog::Level::kInfo,
                                          "NodeManager from {} registered as {}",
                                          "ResourceTrackerService.registerNodeManager");
  bind(stmts.nm_registered, {{"java.lang.String", "NMContext.hostName"},
                             {"yarn.api.records.NodeId", "NMContext.nodeId"}});

  stmts.assigned_container =
      registry.Register(ctlog::Level::kInfo, "Assigned container {} on host {}",
                        "AbstractYarnScheduler.allocateContainer");
  bind(stmts.assigned_container,
       {{"yarn.api.records.ContainerId", ""}, {"yarn.api.records.NodeId", ""}});

  stmts.container_to_attempt = registry.Register(
      ctlog::Level::kInfo, "Assigned container {} to {}", "TaskAttemptListener.assign");
  bind(stmts.container_to_attempt,
       {{"yarn.api.records.ContainerId", ""}, {"mapreduce.v2.api.records.TaskAttemptId", ""}});

  stmts.jvm_given_task = registry.Register(ctlog::Level::kInfo, "JVM with ID: {} given task: {}",
                                           "ContainerLaunch.launchJvm");
  bind(stmts.jvm_given_task,
       {{"mapred.JVMId", ""}, {"mapreduce.v2.api.records.TaskAttemptId", ""}});

  stmts.app_submitted = registry.Register(ctlog::Level::kInfo, "Submitted application {}",
                                          "ClientRMService.submitApplication");
  bind(stmts.app_submitted, {{"yarn.api.records.ApplicationId", ""}});

  stmts.master_container =
      registry.Register(ctlog::Level::kInfo, "Assigned master container {} on host {} for attempt {}",
                        "RMAppAttemptImpl.storeAttempt");
  bind(stmts.master_container,
       {{"yarn.api.records.ContainerId", ""},
        {"yarn.api.records.NodeId", ""},
        {"yarn.api.records.ApplicationAttemptId", ""}});

  stmts.am_registered = registry.Register(
      ctlog::Level::kInfo, "ApplicationMaster for application {} attempt {} registered on {}",
      "ApplicationMasterService.registerApplicationMaster");
  bind(stmts.am_registered, {{"yarn.api.records.ApplicationId", ""},
                             {"yarn.api.records.ApplicationAttemptId", ""},
                             {"yarn.api.records.NodeId", ""}});

  stmts.node_lost = registry.Register(ctlog::Level::kWarn, "Node {} LOST, removing from cluster",
                                      "NodesListManager.handleNodeLost");
  bind(stmts.node_lost, {{"yarn.api.records.NodeId", ""}});

  stmts.task_committed = registry.Register(ctlog::Level::kInfo, "Task {} committed by attempt {}",
                                           "TaskAttemptListener.done");
  bind(stmts.task_committed,
       {{"mapreduce.v2.api.records.TaskId", ""}, {"mapreduce.v2.api.records.TaskAttemptId", ""}});

  stmts.app_finished = registry.Register(ctlog::Level::kInfo, "Application {} finished with state {}",
                                         "RMAppImpl.finishApplication");
  bind(stmts.app_finished, {{"yarn.api.records.ApplicationId", ""},
                            {"yarn.server.resourcemanager.rmapp.RMAppState", "RMAppImpl.state"}});
}

void BuildPoints(YarnArtifacts* artifacts) {
  auto& model = artifacts->model;
  auto& points = artifacts->points;
  const bool legacy = artifacts->mode == YarnMode::kLegacy;

  // addNode is inlined into the register RPC at runtime, so the innermost
  // frame the tracer sees is registerNodeManager, not the declaring method.
  points.rm_register_node_write =
      AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                        .kind = AccessKind::kWrite,
                        .clazz = "AbstractYarnScheduler",
                        .method = "addNode",
                        .line = 88,
                        .op = "put",
                        .context = "ResourceTrackerService.registerNodeManager"});
  points.rm_allocate_current_attempt =
      AddPoint(&model, {.field = "RMAppImpl.currentAttempt",
                        .kind = AccessKind::kRead,
                        .clazz = "OpportunisticAMSProcessor",
                        .method = "allocate",
                        .line = 4});
  points.rm_allocate_node_candidate =
      AddPoint(&model, {.field = "OpportunisticContainerAllocator.nodeList",
                        .kind = AccessKind::kRead,
                        .clazz = "OpportunisticContainerAllocator",
                        .method = "allocateNodes",
                        .line = 212,
                        .op = "get"});
  points.rm_allocate_node_guarded =
      AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                        .kind = AccessKind::kRead,
                        .clazz = "CapacityScheduler",
                        .method = "allocateGuaranteed",
                        .line = 98,
                        .op = "get",
                        .sanity = true});
  points.rm_confirm_container = AddPoint(&model, {.field = "AbstractYarnScheduler.containers",
                                                  .kind = AccessKind::kRead,
                                                  .clazz = "AbstractYarnScheduler",
                                                  .method = "confirmContainer",
                                                  .line = 301,
                                                  .op = "get"});

  // The getScheNode structure of YARN-9164 (Fig. 10): one returned-directly
  // read promoted to 43 call sites — 5 unused, 25 sanity-checked, 13 kept, of
  // which two are on executed paths.
  std::vector<int> sites;
  points.rm_complete_container_site =
      AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                        .kind = AccessKind::kRead,
                        .clazz = "AbstractYarnScheduler",
                        .method = "completeContainer",
                        .line = 5});
  sites.push_back(points.rm_complete_container_site);
  points.rm_node_report_site = AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                                                 .kind = AccessKind::kRead,
                                                 .clazz = "NodeListManager",
                                                 .method = "getNodeReport",
                                                 .line = 77});
  sites.push_back(points.rm_node_report_site);
  for (int i = 0; i < 5; ++i) {
    sites.push_back(AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                                      .kind = AccessKind::kRead,
                                      .clazz = "SchedulerUtils",
                                      .method = "logNodeInfo" + std::to_string(i),
                                      .line = 10 + i,
                                      .unused = true,
                                      .executable = false}));
  }
  for (int i = 0; i < 25; ++i) {
    sites.push_back(AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                                      .kind = AccessKind::kRead,
                                      .clazz = "CapacityScheduler",
                                      .method = "nodeUpdate" + std::to_string(i),
                                      .line = 40 + i,
                                      .sanity = true,
                                      .executable = false}));
  }
  for (int i = 0; i < 11; ++i) {
    sites.push_back(AddPoint(&model, {.field = "AbstractYarnScheduler.nodes",
                                      .kind = AccessKind::kRead,
                                      .clazz = "FiCaSchedulerApp",
                                      .method = "reserve" + std::to_string(i),
                                      .line = 60 + i,
                                      .executable = false}));
  }
  {
    ctmodel::AccessPointDecl promoted;
    promoted.field_id = "AbstractYarnScheduler.nodes";
    promoted.kind = AccessKind::kRead;
    promoted.clazz = "AbstractYarnScheduler";
    promoted.method = "getScheNode";
    promoted.line = 2;
    promoted.collection_op = "get";
    promoted.returned_directly = true;
    promoted.promoted_sites = sites;
    promoted.executable = false;
    points.rm_getschenode_read = model.AddAccessPoint(promoted);
  }

  points.rm_app_status_read = AddPoint(&model, {.field = "RMContextImpl.apps",
                                                .kind = AccessKind::kRead,
                                                .clazz = "RMAppImpl",
                                                .method = "statusUpdate",
                                                .line = 510,
                                                .op = "get"});
  points.rm_container_progress_read = AddPoint(&model, {.field = "AbstractYarnScheduler.containers",
                                                        .kind = AccessKind::kRead,
                                                        .clazz = "ContainerImpl",
                                                        .method = "handle",
                                                        .line = 120,
                                                        .op = "get"});
  points.rm_container_finishing_read = AddPoint(&model, {.field = "AbstractYarnScheduler.containers",
                                                         .kind = AccessKind::kRead,
                                                         .clazz = "ContainerImpl",
                                                         .method = "handle",
                                                         .line = 145,
                                                         .op = "get"});
  points.rm_release_attempt_read = AddPoint(&model, {.field = "RMContextImpl.attempts",
                                                     .kind = AccessKind::kRead,
                                                     .clazz = "SchedulerApplicationAttempt",
                                                     .method = "releaseContainers",
                                                     .line = 233,
                                                     .op = "get"});
  points.rm_finish_app_read = AddPoint(&model, {.field = "RMContextImpl.apps",
                                                .kind = AccessKind::kRead,
                                                .clazz = "RMAppImpl",
                                                .method = "finishApplication",
                                                .line = 620,
                                                .op = "get"});
  points.rm_cluster_status_read = AddPoint(&model, {.field = "RMContextImpl.apps",
                                                    .kind = AccessKind::kRead,
                                                    .clazz = "ClientRMService",
                                                    .method = "getClusterStatus",
                                                    .line = 145,
                                                    .op = "get"});
  points.rm_internal_launched_read = AddPoint(&model, {.field = "AbstractYarnScheduler.containers",
                                                       .kind = AccessKind::kRead,
                                                       .clazz = "RMContainerImpl",
                                                       .method = "processLaunched",
                                                       .line = 402,
                                                       .op = "get"});

  // ApplicationMaster side. Trunk carries the YARN-5918 fix (a sanity check
  // before using the node resource), so the point is pruned there; the
  // legacy model lacks the check, reproducing Fig. 2.
  points.am_node_resource_read = AddPoint(&model, {.field = "MRAppMaster.amNodes",
                                                   .kind = AccessKind::kRead,
                                                   .clazz = "MRAppMaster",
                                                   .method = "getNodeResource",
                                                   .line = 2,
                                                   .op = "get",
                                                   .context = "RMContainerAllocator.assigned",
                                                   .sanity = !legacy});
  points.am_commit_write = AddPoint(&model, {.field = "MRAppMaster.commit",
                                             .kind = AccessKind::kWrite,
                                             .clazz = "TaskAttemptListener",
                                             .method = "commitPending",
                                             .line = 2,
                                             .op = "put"});
  points.am_task_progress_write = AddPoint(&model, {.field = "MRAppMaster.taskProgress",
                                                    .kind = AccessKind::kWrite,
                                                    .clazz = "MRAppMaster",
                                                    .method = "statusUpdate",
                                                    .line = 320,
                                                    .op = "put"});
  points.am_containers_done_read = AddPoint(&model, {.field = "MRAppMaster.amContainers",
                                                     .kind = AccessKind::kRead,
                                                     .clazz = "TaskAttemptListener",
                                                     .method = "done",
                                                     .line = 140,
                                                     .op = "get"});

  // NodeManager / task JVM side.
  points.nm_task_init_write = AddPoint(&model, {.field = "JvmTaskRegistry.launchedJVMs",
                                                .kind = AccessKind::kWrite,
                                                .clazz = "TaskAttemptImpl",
                                                .method = "initialize",
                                                .line = 55,
                                                .op = "add"});
  points.nm_jvm_record_write = AddPoint(&model, {.field = "ContainerLaunch.jvmRecords",
                                                 .kind = AccessKind::kWrite,
                                                 .clazz = "ContainerLaunch",
                                                 .method = "launchJvm",
                                                 .line = 71,
                                                 .op = "put"});
}

// Declared call structure (§3.1.3): which methods are RPC / dispatcher /
// timer entry points (a fresh stack is born there), which calls stay on the
// caller's stack, and which hop to another thread. The static context
// enumeration reproduces every profiler-observable stack from this.
void BuildMethods(ProgramModel* model) {
  // ResourceManager RPC and dispatcher entry points.
  AddMethod(model, "ResourceTrackerService", "registerNodeManager", /*entry=*/true);
  AddMethod(model, "ClientRMService", "submitApplication", /*entry=*/true);
  AddMethod(model, "ClientRMService", "getClusterStatus", /*entry=*/true);
  AddMethod(model, "ApplicationMasterService", "registerApplicationMaster", /*entry=*/true);
  AddMethod(model, "OpportunisticAMSProcessor", "allocate", /*entry=*/true);
  AddMethod(model, "CapacityScheduler", "containerCompleted", /*entry=*/true);
  AddMethod(model, "SchedulerApplicationAttempt", "releaseContainers", /*entry=*/true);
  AddMethod(model, "RMAppImpl", "finishApplication", /*entry=*/true);
  AddMethod(model, "RMAppImpl", "statusUpdate", /*entry=*/true);
  AddMethod(model, "ContainerImpl", "handle", /*entry=*/true);
  AddMethod(model, "NodeListManager", "getNodeReport", /*entry=*/true);
  AddMethod(model, "NodesListManager", "handleNodeLost", /*entry=*/true);
  AddMethod(model, "RMAppAttemptImpl", "amFailed", /*entry=*/true);

  // ResourceManager internals.
  AddMethod(model, "AbstractYarnScheduler", "addNode");
  AddMethod(model, "AbstractYarnScheduler", "completeContainer");
  AddMethod(model, "AbstractYarnScheduler", "confirmContainer");
  AddMethod(model, "AbstractYarnScheduler", "getScheNode");
  AddMethod(model, "AbstractYarnScheduler", "allocateContainer");
  AddMethod(model, "CapacityScheduler", "allocateGuaranteed");
  AddMethod(model, "OpportunisticContainerAllocator", "allocateNodes");
  AddMethod(model, "RMAppAttemptImpl", "storeAttempt");
  AddMethod(model, "RMAppAttemptImpl", "attemptFailed");
  AddMethod(model, "RMContainerImpl", "processLaunched");

  AddCall(model, "ResourceTrackerService.registerNodeManager", "AbstractYarnScheduler.addNode");
  AddCall(model, "ClientRMService.submitApplication", "RMAppAttemptImpl.storeAttempt");
  AddCall(model, "RMAppAttemptImpl.amFailed", "RMAppAttemptImpl.attemptFailed");
  AddCall(model, "NodesListManager.handleNodeLost", "RMAppAttemptImpl.attemptFailed");
  AddCall(model, "RMAppAttemptImpl.attemptFailed", "RMAppAttemptImpl.storeAttempt");
  AddCall(model, "RMAppAttemptImpl.attemptFailed", "AbstractYarnScheduler.completeContainer");
  AddCall(model, "OpportunisticAMSProcessor.allocate",
          "OpportunisticContainerAllocator.allocateNodes");
  // Virtual dispatch through the scheduler interface resolves to the
  // capacity scheduler via the subtype edge declared in BuildTypes.
  AddCall(model, "OpportunisticAMSProcessor.allocate",
          "AbstractYarnScheduler.allocateGuaranteed", ctmodel::CallKind::kVirtual);
  // Both allocation paths funnel into the shared allocateContainer helper,
  // where the "Allocated container" statement is emitted.
  AddCall(model, "CapacityScheduler.allocateGuaranteed",
          "AbstractYarnScheduler.allocateContainer");
  AddCall(model, "OpportunisticContainerAllocator.allocateNodes",
          "AbstractYarnScheduler.allocateContainer");
  AddCall(model, "CapacityScheduler.containerCompleted",
          "AbstractYarnScheduler.completeContainer");
  AddCall(model, "RMAppImpl.finishApplication", "AbstractYarnScheduler.completeContainer");
  AddCall(model, "NodeListManager.getNodeReport", "AbstractYarnScheduler.getScheNode");
  AddCall(model, "AbstractYarnScheduler.completeContainer",
          "AbstractYarnScheduler.getScheNode");
  // Container launch is acknowledged on the scheduler event thread; attempt
  // storage confirms the master container from the state-store callback.
  AddCall(model, "OpportunisticAMSProcessor.allocate", "RMContainerImpl.processLaunched",
          ctmodel::CallKind::kAsync);
  AddCall(model, "RMAppAttemptImpl.storeAttempt", "AbstractYarnScheduler.confirmContainer",
          ctmodel::CallKind::kAsync);

  // ApplicationMaster / NodeManager side.
  AddMethod(model, "MRAppMaster", "serviceStart", /*entry=*/true);
  AddMethod(model, "MRAppMaster", "statusUpdate", /*entry=*/true);
  AddMethod(model, "MRAppMaster", "getNodeResource");
  AddMethod(model, "RMContainerAllocator", "assigned", /*entry=*/true);
  AddMethod(model, "RMContainerAllocator", "taskNodeLost", /*entry=*/true);
  AddMethod(model, "TaskAttemptListener", "assign");
  AddMethod(model, "TaskAttemptListener", "commitPending", /*entry=*/true);
  AddMethod(model, "TaskAttemptListener", "done", /*entry=*/true);
  AddMethod(model, "ContainerLaunch", "launchJvm", /*entry=*/true);
  AddMethod(model, "ContainerLaunch", "writeLaunchLog");
  AddMethod(model, "FileOutputCommitter", "writeOutput", /*entry=*/true);
  AddMethod(model, "TaskAttemptImpl", "initialize");

  AddCall(model, "RMContainerAllocator.assigned", "MRAppMaster.getNodeResource");
  // The allocator hands each container to the listener, which logs the task
  // assignment; the launch path mirrors the JVM record into the launch log.
  AddCall(model, "RMContainerAllocator.assigned", "TaskAttemptListener.assign");
  AddCall(model, "ContainerLaunch.launchJvm", "ContainerLaunch.writeLaunchLog");
  // The JVM bootstrap registers the task attempt from the child runner thread.
  AddCall(model, "ContainerLaunch.launchJvm", "TaskAttemptImpl.initialize",
          ctmodel::CallKind::kAsync);
}

void BuildIoPoints(YarnArtifacts* artifacts) {
  auto& model = artifacts->model;
  model.AddIoMethod({"org.apache.hadoop.fs.FSDataOutputStream", "write"});
  model.AddIoMethod({"org.apache.hadoop.fs.FSDataOutputStream", "flush"});
  model.AddIoMethod({"org.apache.hadoop.fs.FSDataOutputStream", "close"});
  model.AddIoMethod(
      {"yarn.server.resourcemanager.recovery.FileSystemRMStateStore", "writeApplicationState"});

  IoPointDecl launch_log;
  launch_log.io_class = "org.apache.hadoop.fs.FSDataOutputStream";
  launch_log.io_method = "write";
  launch_log.callsite = "ContainerLaunch.writeLaunchLog";
  launch_log.executable = true;
  artifacts->io.nm_launch_log_io = model.AddIoPoint(launch_log);

  IoPointDecl task_output;
  task_output.io_class = "org.apache.hadoop.fs.FSDataOutputStream";
  task_output.io_method = "write";
  task_output.callsite = "FileOutputCommitter.writeOutput";
  task_output.executable = true;
  artifacts->io.nm_task_output_io = model.AddIoPoint(task_output);

  IoPointDecl state_store;
  state_store.io_class = "yarn.server.resourcemanager.recovery.FileSystemRMStateStore";
  state_store.io_method = "writeApplicationState";
  state_store.callsite = "RMStateStore.storeApp";
  state_store.executable = false;
  artifacts->io.rm_state_store_io = model.AddIoPoint(state_store);
}

void BuildCatalog(ProgramModel* model) {
  ctmodel::CatalogSpec spec;
  spec.packages = {"org.apache.hadoop.yarn.server.resourcemanager",
                   "org.apache.hadoop.yarn.server.nodemanager",
                   "org.apache.hadoop.yarn.api.records",
                   "org.apache.hadoop.mapreduce.v2.app",
                   "org.apache.hadoop.yarn.client",
                   "org.apache.hadoop.yarn.util",
                   "org.apache.hadoop.yarn.server.webproxy"};
  spec.stems = {"Scheduler",  "Allocator", "Tracker",   "Monitor", "Dispatcher",
                "Context",    "Token",     "Resource",  "Localizer", "Aggregator",
                "Publisher",  "Router",    "Registry",  "Queue",     "Reservation"};
  spec.suffixes = {"Impl", "Service", "Event", "Handler", "Manager", "Util", "PBImpl", "Factory"};
  spec.num_classes = 540;
  spec.metainfo_field_types = {
      "yarn.api.records.NodeId", "yarn.api.records.ContainerId",
      "yarn.api.records.ApplicationId", "yarn.api.records.ApplicationAttemptId",
      "mapreduce.v2.api.records.TaskAttemptId"};
  spec.holders_per_metainfo_type = 4;
  spec.seed = 0xa5;
  PopulateCatalog(model, spec);
}

// Network-fault bug windows: partition the node a meta-info value resolves
// to (instead of crashing it), hold the cut past the liveness expiry, heal,
// and let the presumed-dead node's next heartbeat race the recovered state.
void BuildNetworkFaultWindows(YarnArtifacts* artifacts) {
  const YarnPoints& p = artifacts->points;
  // fd_timeout 1500 ms + sweep 250 ms put the LOST expiry at ~1750 ms into
  // the cut. 1900 ms heals just after it, so the NM's next 1000 ms-grid
  // heartbeat lands inside the removal's recovery window; a longer cut heals
  // after the sweep has settled and the heartbeat takes the benign resync.
  // The race: an NM partitioned at registration is expired as LOST, heals and
  // heartbeats into the tracker without a resync.
  artifacts->model.AddNetworkFaultWindow({p.rm_register_node_write, 1900, "YARN-9301"});
}

// Workload-fuzzing grammar: the ops the fuzz generator may splice
// into a run. RPC ops name their declared handler method (the wire verb is
// the runtime registration); node ops name the class whose recovery logic
// the fault exercises — both are checked by ctlint's
// grammar-op-unknown-target.
void BuildGrammar(ProgramModel* model) {
  {
    // A second application competing for the same node set.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.submit-app";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "ClientRMService.submitApplication";
    op.rpc_verb = "submitApplication";
    op.target_prefix = "master";
    op.args = {{"tasks", "%MAG%"}};
    op.max_magnitude = 3;
    op.weight = 2;
    op.min_time_ms = 1000;
    op.max_time_ms = 9000;
    model->AddGrammarOp(op);
  }
  {
    // Status read racing node-map mutations.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.cluster-status";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "ClientRMService.getClusterStatus";
    op.rpc_verb = "getClusterStatus";
    op.target_prefix = "master";
    op.weight = 2;
    op.min_time_ms = 500;
    op.max_time_ms = 15000;
    model->AddGrammarOp(op);
  }
  {
    // Node-list lookup against a possibly removed NM.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.node-report";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "NodeListManager.getNodeReport";
    op.rpc_verb = "getNodeReport";
    op.target_prefix = "master";
    op.args = {{"node", "%NODE%"}};
    op.arg_prefix = "node";
    op.weight = 2;
    op.min_time_ms = 500;
    op.max_time_ms = 15000;
    model->AddGrammarOp(op);
  }
  {
    // Administrative decommission through the failure detector.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.decommission-worker";
    op.kind = ctmodel::GrammarOpKind::kRpc;
    op.target_method = "NodesListManager.handleNodeLost";
    op.rpc_verb = "unregisterNode";
    op.target_prefix = "master";
    op.args = {{"node", "%NODE%"}};
    op.arg_prefix = "node";
    op.weight = 2;
    op.min_time_ms = 2000;
    op.max_time_ms = 12000;
    model->AddGrammarOp(op);
  }
  {
    // Fail-stop an NM mid-job; exercises node-lost recovery.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.kill-worker";
    op.kind = ctmodel::GrammarOpKind::kCrash;
    op.target_class = "NodesListManager";
    op.target_prefix = "node";
    op.weight = 3;
    op.min_time_ms = 2000;
    op.max_time_ms = 12000;
    model->AddGrammarOp(op);
  }
  {
    // Graceful NM stop; heartbeats cease without a crash record.
    ctmodel::GrammarOpDecl op;
    op.name = "yarn.stop-worker";
    op.kind = ctmodel::GrammarOpKind::kShutdown;
    op.target_class = "NodesListManager";
    op.target_prefix = "node";
    op.weight = 2;
    op.min_time_ms = 2000;
    op.max_time_ms = 12000;
    model->AddGrammarOp(op);
  }
}

YarnArtifacts* BuildArtifacts(YarnMode mode) {
  auto* artifacts = new YarnArtifacts();
  artifacts->mode = mode;
  artifacts->model = ProgramModel(mode == YarnMode::kLegacy ? "Hadoop2/Yarn(legacy)"
                                                            : "Hadoop2/Yarn");
  BuildTypes(&artifacts->model);
  BuildFields(&artifacts->model);
  BuildStatements(artifacts);
  BuildPoints(artifacts);
  BuildMethods(&artifacts->model);
  BuildIoPoints(artifacts);
  BuildCatalog(&artifacts->model);
  BuildNetworkFaultWindows(artifacts);
  BuildGrammar(&artifacts->model);
  return artifacts;
}

}  // namespace

const YarnArtifacts& GetYarnArtifacts(YarnMode mode) {
  // One static per branch: a process that only runs trunk YARN never builds
  // the legacy model.
  if (mode == YarnMode::kLegacy) {
    static const YarnArtifacts* legacy = BuildArtifacts(YarnMode::kLegacy);
    return *legacy;
  }
  static const YarnArtifacts* trunk = BuildArtifacts(YarnMode::kTrunk);
  return *trunk;
}

std::string AppId(int job) { return "application_1550060164_" + std::to_string(1000 + job); }

std::string AppAttemptId(int job, int attempt) {
  return "appattempt_1550060164_" + std::to_string(1000 + job) + "_" +
         std::to_string(attempt);
}

std::string ContainerId(int job, int attempt, int container) {
  return "container_1550060164_" + std::to_string(1000 + job) + "_" + std::to_string(attempt) +
         "_" + std::to_string(container);
}

std::string TaskId(int job, int task) {
  return "task_1550060164_" + std::to_string(1000 + job) + "_m_" + std::to_string(task);
}

std::string TaskAttemptId(int job, int task, int retry) {
  return "attempt_1550060164_" + std::to_string(1000 + job) + "_m_" + std::to_string(task) + "_" +
         std::to_string(retry);
}

std::string JvmId(int job, int task, int retry) {
  return "jvm_1550060164_" + std::to_string(1000 + job) + "_m_" + std::to_string(task) + "_" +
         std::to_string(retry);
}

}  // namespace ctyarn
