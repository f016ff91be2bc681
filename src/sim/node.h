// Base class for simulated cluster nodes (JVM processes in the paper's terms).
//
// A node has an id of the form "host:port", a lifecycle
// (stopped → running → crashed/shutdown), a logger, registered RPC handlers,
// and timer helpers whose events die with the node. Message dispatch is the
// exception boundary: SimExceptions raised while handling a message are
// logged and passed to OnHandlerException, whose default policy aborts the
// node — and, for critical nodes, the whole cluster (the YARN-9164 "master
// aborts, cluster down" failure mode).
//
// Dispatch, timer firings and Every's re-arming allocate nothing: the
// boundary is a template over the callable, and the node keeps its timer
// callbacks in storage it owns, so a timer event's closure is two words.
#ifndef SRC_SIM_NODE_H_
#define SRC_SIM_NODE_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/logging/log_store.h"
#include "src/sim/event_loop.h"
#include "src/sim/exception.h"
#include "src/sim/message.h"
#include "src/sim/symbol.h"

namespace ctsim {

class Cluster;

enum class NodeState { kStopped, kRunning, kCrashed, kShutdown };

// Payload fields for Send; brace-init lists of {"key", "value"} pairs.
using KvList = std::vector<std::pair<std::string, std::string>>;

class Node {
 public:
  Node(Cluster* cluster, std::string id);
  virtual ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& id() const { return id_; }
  // Interned identity within the owning cluster.
  NodeId sym() const { return sym_; }
  // Host part of "host:port".
  std::string host() const;
  NodeState state() const { return state_; }
  bool IsRunning() const { return state_ == NodeState::kRunning; }

  ctlog::Logger& log() { return *logger_; }
  Cluster& cluster() { return *cluster_; }

  // Lifecycle, driven by the cluster.
  void Start();
  void MarkCrashed();
  void MarkShutdown();

  // Delivers a message: runs the registered handler inside the exception
  // boundary. Silently drops the message if the node is not running.
  void Dispatch(const Message& message);

  // Runs `fn` inside the same exception boundary Dispatch uses; `context`
  // names the executing component for the exception policy (the RPC verb,
  // "timer" or "shutdown"). While `fn` and the policy run, this node is the
  // cluster's current node; the previous one is restored on every exit. A
  // SimException is logged and passed to OnHandlerException; a
  // NodeCrashedSignal is swallowed.
  template <typename Fn>
  void RunGuarded(const std::string& context, Fn&& fn);

  // RPC handler registration. Must not run inside this node's own handler or
  // timer (see handlers_).
  void Handle(const std::string& method, std::function<void(const Message&)> handler);

  // Sends an RPC to another node via the cluster network. Periodic senders
  // hold `to` and `method` interned; the string overloads intern and forward.
  void Send(NodeId to, Symbol method, KvList args = {});
  void Send(const std::string& to, const std::string& method, KvList args = {});
  void Send(NodeId to, const std::string& method, KvList args = {});

  // Timers owned by this node; they do not fire once the node is dead.
  // The callback waits in a node-owned slot, which is freed before it runs,
  // so a callback that calls After may reuse its own slot.
  void After(Time delay, std::function<void()> fn);
  // Fires every `period` ms until the node dies.
  void Every(Time period, std::function<void()> fn);
  // Slots After has allocated so far (diagnostics: a re-armed timer reuses
  // its slot instead of adding one).
  size_t timer_slots() const { return timers_.size(); }

  // True once an unhandled exception aborted this node.
  bool aborted() const { return aborted_; }

  // Deferred nodes are skipped by Cluster::StartAll and started explicitly
  // (machines that join the cluster mid-run).
  void set_defer_start(bool defer) { defer_start_ = defer; }
  bool defer_start() const { return defer_start_; }

  // Workload-driver nodes (clients) model the off-cluster test harness; the
  // random-injection baseline never crashes them.
  void set_workload_driver(bool driver) { workload_driver_ = driver; }
  bool workload_driver() const { return workload_driver_; }

 protected:
  // Subclass hooks.
  virtual void OnStart() {}
  // Runs during *graceful* shutdown, before the node is marked dead; the
  // place to send leave/unregister notifications (the paper's shutdown-script
  // path that lets the cluster skip the failure-detection timeout).
  virtual void OnShutdown() {}
  // Unhandled-SimException policy; `context` is the RPC method or timer
  // context that raised it. Default: abort this node, as a JVM does when a
  // critical thread dies. Subclasses refine per component (a master may
  // tolerate state-machine exceptions but die on NullPointerException).
  virtual void OnHandlerException(const std::string& context, const SimException& e);

  // Aborts the node as a JVM would on an uncaught exception in a critical
  // thread.
  void Abort(const std::string& reason);

  // Marked by masters whose death takes the cluster down.
  void SetCritical() { critical_ = true; }

 private:
  friend class Cluster;

  // Schedules one tick of periodic_[tick], which re-arms itself.
  void ScheduleTick(uint32_t tick);
  // Runs the After callback waiting in `slot`.
  void FireTimer(uint32_t slot);
  // RunGuarded's cold path: logs the exception and applies the policy.
  void OnUncaught(const std::string& context, const SimException& e);

  Cluster* cluster_;
  // The cluster's current node, which RunGuarded sets and restores.
  NodeId* current_node_;
  std::string id_;
  NodeId sym_;
  NodeState state_ = NodeState::kStopped;
  bool aborted_ = false;
  bool defer_start_ = false;
  bool workload_driver_ = false;
  bool critical_ = false;
  std::unique_ptr<ctlog::Logger> logger_;
  // Indexed by interned method id; an empty slot has no handler. Dispatch
  // calls the handler in place, so registering one, which may grow the
  // vector and move every handler, must not happen while one is running.
  std::vector<std::function<void(const Message&)>> handlers_;
  // Every's callbacks, kept for the node's lifetime; a tick event holds only
  // its index. A deque, so a callback that calls Every while it runs is not
  // moved.
  struct Periodic {
    Time period = 0;
    std::function<void()> fn;
  };
  std::deque<Periodic> periodic_;
  // After's pending callbacks; a timer event holds only its slot. The slot
  // of a timer that dies with the node is freed with the node.
  std::vector<std::function<void()>> timers_;
  std::vector<uint32_t> free_timers_;
};

template <typename Fn>
void Node::RunGuarded(const std::string& context, Fn&& fn) {
  // Timer and async events execute in this node's context; the trigger reads
  // cluster().current_node() to know which process a hook fired on.
  struct Restore {
    NodeId* current;
    NodeId previous;
    ~Restore() { *current = previous; }
  } restore{current_node_, *current_node_};
  *current_node_ = sym_;
  try {
    fn();
  } catch (const SimException& e) {
    OnUncaught(context, e);
  } catch (const NodeCrashedSignal&) {
    // The node died mid-handler (post-write crash injection); the remainder
    // of the handler is simply gone, like the rest of a killed JVM.
  }
}

}  // namespace ctsim

#endif  // SRC_SIM_NODE_H_
