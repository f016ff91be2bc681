#include "src/sim/node.h"

#include "src/common/check.h"
#include "src/sim/cluster.h"

namespace ctsim {

Node::Node(Cluster* cluster, std::string id) : cluster_(cluster), id_(std::move(id)) {
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
  RunGuarded(message.method, [&] { handlers_[method](message); });
}

void Node::RunGuarded(const std::string& context, const std::function<void()>& fn) {
  // Timer and async events execute in this node's context; the trigger reads
  // cluster().current_node() to know which process a hook fired on.
  const NodeId previous = cluster_->current_node_;
  cluster_->current_node_ = sym_;
  struct Restore {
    Cluster* cluster;
    NodeId previous;
    ~Restore() { cluster->current_node_ = previous; }
  } restore{cluster_, previous};
  try {
    fn();
  } catch (const SimException& e) {
    log().Error("Uncommon exception {} : {}", {e.type, e.message}, "Node.dispatch");
    OnHandlerException(context, e);
  } catch (const NodeCrashedSignal&) {
    // The node died mid-handler (post-write crash injection); the remainder
    // of the handler is simply gone, like the rest of a killed JVM.
  }
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
  // A timer firing is a causal root: even when the loop drains it inside
  // another handler's nested RunFor, its sends must not inherit that
  // delivery's flow.
  cluster_->loop().Schedule(
      delay,
      [this, fn = std::move(fn)] {
        Cluster::FlowRootScope flow_root(cluster_);
        RunGuarded("timer", fn);
      },
      sym_);
}

void Node::Every(Time period, std::function<void()> fn) {
  ScheduleTick(period, std::make_shared<const std::function<void()>>(std::move(fn)));
}

void Node::ScheduleTick(Time period, std::shared_ptr<const std::function<void()>> fn) {
  // The repeating event re-arms itself with the same callback; owner tagging
  // stops it at death.
  cluster_->loop().Schedule(
      period,
      [this, period, fn] {
        Cluster::FlowRootScope flow_root(cluster_);
        RunGuarded("timer", *fn);
        if (IsRunning()) {
          ScheduleTick(period, fn);
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
