#include "src/sim/cluster.h"

#include <algorithm>

#include "src/common/check.h"

namespace ctsim {

Cluster::Cluster() {
  loop_.SetOwnerAliveCheck([this](NodeId owner) { return IsAlive(owner); });
  loop_.SetTraceHook([this](Time at, NodeId owner) {
    if (trace_ != nullptr) {
      trace_->RecordTimer(at, owner);
    }
  });
}

Cluster::~Cluster() = default;

void Cluster::RegisterNode(std::unique_ptr<Node> node) {
  const NodeId id = node->sym();
  CT_CHECK_MSG(Find(id) == nullptr, "duplicate node id");
  if (id.id() >= route_.size()) {
    route_.resize(id.id() + 1, nullptr);
  }
  route_[id.id()] = node.get();
  insertion_order_.push_back(id);
  owned_nodes_.push_back(std::move(node));
}

Node* Cluster::Find(const std::string& id) const {
  return Find(interner_.Find(id));
}

std::vector<Node*> Cluster::nodes() const {
  std::vector<Node*> out;
  out.reserve(insertion_order_.size());
  for (const NodeId id : insertion_order_) {
    out.push_back(Find(id));
  }
  return out;
}

std::vector<std::string> Cluster::node_ids() const {
  std::vector<std::string> out;
  out.reserve(insertion_order_.size());
  for (const NodeId id : insertion_order_) {
    out.push_back(id.str());
  }
  return out;
}

std::vector<std::string> Cluster::config_hosts() const {
  std::vector<std::string> hosts;
  for (const NodeId id : insertion_order_) {
    std::string host = Find(id)->host();
    if (std::find(hosts.begin(), hosts.end(), host) == hosts.end()) {
      hosts.push_back(host);
    }
  }
  return hosts;
}

void Cluster::StartAll() {
  for (const NodeId id : insertion_order_) {
    Node* node = Find(id);
    if (node->state() == NodeState::kStopped && !node->defer_start()) {
      StartNode(id.str());
    }
  }
}

void Cluster::StartNode(const std::string& id) {
  Node* node = Find(id);
  if (node == nullptr || node->state() != NodeState::kStopped) {
    return;
  }
  TraceRecord("start", id);
  const NodeId previous = current_node_;
  current_node_ = node->sym();
  // Lifecycle sends are causal roots, even when the start happens inside
  // another node's handler (a mid-run join).
  FlowRootScope flow_root(this);
  node->Start();
  current_node_ = previous;
}

bool Cluster::IsAlive(const std::string& id) const {
  Node* node = Find(id);
  return node != nullptr && node->IsRunning();
}

void Cluster::Crash(const std::string& id) {
  Node* node = Find(id);
  if (node == nullptr || !node->IsRunning()) {
    return;
  }
  ++crash_count_;
  TraceRecord("crash", id);
  node->MarkCrashed();
}

void Cluster::Shutdown(const std::string& id) {
  Node* node = Find(id);
  if (node == nullptr || !node->IsRunning()) {
    return;
  }
  ++shutdown_count_;
  TraceRecord("shutdown", id);
  // The shutdown hook runs inside the node's exception boundary: stop-time
  // code can itself raise the exceptions crash-recovery bugs are made of
  // (HDFS-14372's "shutdown before register" abort). Its leave
  // notifications are causal roots, not children of whatever delivery the
  // trigger interrupted.
  FlowRootScope flow_root(this);
  node->RunGuarded("shutdown", [node] { node->OnShutdown(); });
  node->MarkShutdown();
}

void Cluster::Post(NodeId from, NodeId to, Symbol method, KvList args) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Message& message = in_flight_[slot];
  message.from = from;
  message.to = to;
  message.method = method;
  message.args.Clear();
  for (auto& kv : args) {
    message.args.Set(Intern(kv.first), std::move(kv.second));
  }
  // The causal stamp is written at post time (see set_flow_recorder); with
  // no recorder set it stays 0.
  message.flow = current_flow_;
  if (!partitions_.empty() && LinkCut(from, to)) {
    ++plan_dropped_messages_;
    TraceMessage(MessageEvent::kDropPartition, message);
    free_slots_.push_back(slot);
    return;
  }
  // A plain loop call on the slot: no closure. The slot is freed only after
  // the handler returns (see in_flight_).
  loop_.ScheduleCall(kLatencyMs, this, slot);
}

void Cluster::OnCall(uint32_t slot) {
  DeliverNow(in_flight_[slot]);
  free_slots_.push_back(slot);
}

void Cluster::Post(const std::string& from, const std::string& to, const std::string& method,
                   KvList args) {
  const NodeId from_id = Intern(from);
  const NodeId to_id = Intern(to);
  Post(from_id, to_id, Intern(method), std::move(args));
}

void Cluster::DeliverNow(const Message& message) {
  Node* target = Find(message.to);
  if (target == nullptr || !target->IsRunning()) {
    ++dropped_messages_;
    TraceMessage(MessageEvent::kDropDead, message);
    return;
  }
  ++delivered_messages_;
  TraceMessage(MessageEvent::kDeliver, message);
  const NodeId previous = current_node_;
  current_node_ = message.to;
  // Record the delivery, which allocates its flow id on the deterministic
  // delivery order, and make it the parent of anything its handler posts.
  const uint64_t previous_flow = current_flow_;
  if (flows_ != nullptr) {
    current_flow_ = flows_->Record(message.flow, message.method, loop_.Now());
  }
  target->Dispatch(message);
  current_flow_ = previous_flow;
  current_node_ = previous;
}

void Cluster::Partition(const std::vector<std::string>& group, Time start_ms, Time heal_ms) {
  std::string members;
  for (const auto& id : group) {
    members += (members.empty() ? "" : ",") + id;
  }
  TraceRecord("partition",
              std::to_string(start_ms) + ".." + std::to_string(heal_ms) + " " + members);
  ++partition_epochs_;
  partitions_.push_back({start_ms, heal_ms, group});
}

bool Cluster::LinkCut(const std::string& from, const std::string& to) const {
  const Time now = loop_.Now();
  for (const auto& window : partitions_) {
    auto inside = [&window](const std::string& id) {
      return std::find(window.group.begin(), window.group.end(), id) != window.group.end();
    };
    if (now >= window.start_ms && now < window.heal_ms && inside(from) != inside(to)) {
      return true;
    }
  }
  return false;
}

void Cluster::TraceRecord(const char* kind, std::string_view detail) {
  if (trace_ != nullptr) {
    trace_->Record(loop_.Now(), kind, detail);
  }
}

void Cluster::TraceMessage(MessageEvent kind, const Message& message) {
  if (trace_ != nullptr) {
    trace_->RecordMessage(loop_.Now(), kind, message.from, message.to, message.method);
  }
}

void Cluster::MarkClusterDown(const std::string& reason) {
  if (cluster_down_) {
    return;
  }
  cluster_down_ = true;
  cluster_down_reason_ = reason;
  TraceRecord("cluster-down", reason);
}

}  // namespace ctsim
