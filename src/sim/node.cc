#include "src/sim/node.h"

#include "src/common/check.h"
#include "src/sim/cluster.h"

namespace ctsim {

namespace {

// The exception-policy context of every timer firing.
const std::string& TimerContext() {
  static const std::string context("timer");
  return context;
}

}  // namespace

Node::Node(Cluster* cluster, std::string id)
    : cluster_(cluster), current_node_(&cluster->current_node_), id_(std::move(id)) {
  sym_ = cluster_->Intern(id_);
  logger_ = std::make_unique<ctlog::Logger>(&cluster_->logs(), id_,
                                            [this] { return cluster_->loop().Now(); });
}

Node::~Node() = default;

std::string Node::host() const {
  size_t colon = id_.rfind(':');
  return colon == std::string::npos ? id_ : id_.substr(0, colon);
}

void Node::Start() {
  CT_CHECK(state_ == NodeState::kStopped);
  state_ = NodeState::kRunning;
  OnStart();
}

void Node::MarkCrashed() { state_ = NodeState::kCrashed; }

void Node::MarkShutdown() { state_ = NodeState::kShutdown; }

void Node::Dispatch(const Message& message) {
  if (!IsRunning()) {
    return;
  }
  const uint32_t method = message.method.id();
  if (method >= handlers_.size() || !handlers_[method]) {
    log().Warn("No handler for RPC {}", {message.method}, "Node.dispatch");
    return;
  }
  const auto& handler = handlers_[method];
  RunGuarded(message.method, [&handler, &message] { handler(message); });
}

void Node::OnUncaught(const std::string& context, const SimException& e) {
  log().Error("Uncommon exception {} : {}", {e.type, e.message}, "Node.dispatch");
  OnHandlerException(context, e);
}

void Node::Handle(const std::string& method, std::function<void(const Message&)> handler) {
  // Growing handlers_ moves the std::function that Dispatch is running when
  // this node is the one executing. Nodes register their handlers in their
  // constructors, where that cannot happen.
  CT_CHECK(cluster_->current_node_ != sym_);
  const uint32_t id = cluster_->Intern(method).id();
  if (id >= handlers_.size()) {
    handlers_.resize(id + 1);
  }
  handlers_[id] = std::move(handler);
}

void Node::Send(NodeId to, Symbol method, KvList args) {
  cluster_->Post(sym_, to, method, std::move(args));
}

void Node::Send(const std::string& to, const std::string& method, KvList args) {
  const NodeId to_id = cluster_->Intern(to);
  Send(to_id, cluster_->Intern(method), std::move(args));
}

void Node::Send(NodeId to, const std::string& method, KvList args) {
  Send(to, cluster_->Intern(method), std::move(args));
}

void Node::After(Time delay, std::function<void()> fn) {
  uint32_t slot;
  if (free_timers_.empty()) {
    slot = static_cast<uint32_t>(timers_.size());
    timers_.push_back(std::move(fn));
  } else {
    slot = free_timers_.back();
    free_timers_.pop_back();
    timers_[slot] = std::move(fn);
  }
  // Two words: the closure fits std::function's inline buffer.
  cluster_->loop().Schedule(delay, [this, slot] { FireTimer(slot); }, sym_);
}

void Node::FireTimer(uint32_t slot) {
  // Free the slot before the callback runs, so an After inside it may take
  // the slot again.
  const std::function<void()> fn = std::move(timers_[slot]);
  timers_[slot] = nullptr;
  free_timers_.push_back(slot);
  // A timer firing is a causal root: even when the loop drains it inside
  // another handler's nested RunFor, its sends must not inherit that
  // delivery's flow.
  Cluster::FlowRootScope flow_root(cluster_);
  RunGuarded(TimerContext(), fn);
}

void Node::Every(Time period, std::function<void()> fn) {
  periodic_.push_back({period, std::move(fn)});
  ScheduleTick(static_cast<uint32_t>(periodic_.size() - 1));
}

void Node::ScheduleTick(uint32_t tick) {
  // The repeating event re-arms itself with the same callback; owner tagging
  // stops it at death.
  cluster_->loop().Schedule(
      periodic_[tick].period,
      [this, tick] {
        Cluster::FlowRootScope flow_root(cluster_);
        RunGuarded(TimerContext(), periodic_[tick].fn);
        if (IsRunning()) {
          ScheduleTick(tick);
        }
      },
      sym_);
}

void Node::OnHandlerException(const std::string& context, const SimException& e) {
  Abort(e.type + " in " + context + ": " + e.message);
}

void Node::Abort(const std::string& reason) {
  if (aborted_) {
    return;
  }
  aborted_ = true;
  log().Fatal("Aborting node {} : {}", {id_, reason}, "Node.abort");
  state_ = NodeState::kCrashed;
  if (critical_) {
    cluster_->MarkClusterDown(id_ + " aborted: " + reason);
  }
}

}  // namespace ctsim
