// Simulated cluster: nodes + network + shared event loop + log store.
//
// The cluster is the unit of one test run. It owns the deterministic event
// loop, delivers RPCs with fixed latency (dropping traffic to dead nodes),
// and exposes the two fault primitives the paper's trigger uses: Crash
// (abrupt kill, like the crash RPC of Fig. 7) and Shutdown (graceful leave
// via the system's shutdown script, used for pre-read points so the cluster
// learns about the departure without waiting out the failure detector). Its
// one network fault is the partition window (Partition). Nothing in a run
// draws a random number, so a run is fixed by its workload and its faults.
//
// The cluster also owns the run's intern table: every node id and RPC method
// becomes a Symbol at registration/send time, so routing, the alive check,
// and handler dispatch are integer lookups. Strings survive only at the
// model/report boundary (logs, traces, reports), byte-identical to before.
#ifndef SRC_SIM_CLUSTER_H_
#define SRC_SIM_CLUSTER_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/logging/log_store.h"
#include "src/sim/event_loop.h"
#include "src/sim/flow.h"
#include "src/sim/message.h"
#include "src/sim/node.h"
#include "src/sim/symbol.h"
#include "src/sim/trace.h"

namespace ctsim {

// A message delivery is a plain loop call on the cluster (OnCall).
class Cluster : private EventLoop::CallTarget {
 public:
  Cluster();
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  EventLoop& loop() { return loop_; }
  ctlog::LogStore& logs() { return logs_; }

  // The run's intern table. Symbols from one cluster must not be mixed with
  // another cluster's.
  Symbol Intern(const std::string& text) { return interner_.Intern(text); }
  InternTable& interner() { return interner_; }

  // Constructs and registers a node. T must derive from Node and take
  // (Cluster*, ...) constructor arguments.
  template <typename T, typename... Args>
  T* AddNode(Args&&... args) {
    auto node = std::make_unique<T>(this, std::forward<Args>(args)...);
    T* raw = node.get();
    RegisterNode(std::move(node));
    return raw;
  }

  Node* Find(const std::string& id) const;
  Node* Find(NodeId id) const {
    return id.id() < route_.size() ? route_[id.id()] : nullptr;
  }
  std::vector<Node*> nodes() const;
  std::vector<std::string> node_ids() const;
  // Hosts listed in the cluster "configuration file" — what log analysis uses
  // to recognize node-referencing values.
  std::vector<std::string> config_hosts() const;

  // Starts every non-deferred stopped node.
  void StartAll();
  // Starts one node (used for nodes that join the cluster mid-run).
  void StartNode(const std::string& id);

  bool IsAlive(const std::string& id) const;
  bool IsAlive(NodeId id) const {
    Node* node = Find(id);
    return node != nullptr && node->IsRunning();
  }

  // Abrupt kill: no notifications; in-flight messages to the node are lost;
  // its timers never fire again.
  void Crash(const std::string& id);

  // Graceful stop: OnShutdown runs (sending leave notifications), then the
  // node is marked dead.
  void Shutdown(const std::string& id);

  // Network: schedules delivery after the link latency, one loop event per
  // message; messages to nodes that are dead *at delivery time* are dropped.
  // Coalescing same-destination same-tick messages into one event was tried
  // and removed: only 1.7% (paper campaign) and 3.2% (scale 8) of deliveries
  // ever shared an event.
  //
  // The message is built in place in an in-flight slot (see in_flight_), and
  // its delivery is a plain loop call on that slot, so neither the send nor
  // the delivery allocates once the slab has grown to the run's peak of
  // messages in flight. Arg keys are interned even when a partition drops
  // the message.
  void Post(NodeId from, NodeId to, Symbol method, KvList args = {});
  // Convenience for senders outside any node (workload kick-off scripts):
  // interns the identities and forwards.
  void Post(const std::string& from, const std::string& to, const std::string& method,
            KvList args = {});
  Time latency_ms() const { return kLatencyMs; }

  // The network fault: cuts `group` off from every node outside it, in both
  // directions, during [start_ms, heal_ms). The cut applies at post time, so
  // a message launched into an active window is lost even if the window
  // heals before the link latency elapses. The heal is the window expiring;
  // no event is scheduled for it. The trigger cuts off the resolved node
  // from now on; the random baseline installs a pre-drawn window before the
  // run starts.
  void Partition(const std::vector<std::string>& group, Time start_ms, Time heal_ms);
  // True while an active partition window cuts traffic from → to.
  bool LinkCut(const std::string& from, const std::string& to) const;

  // Causal-flow observation. When set (the executor does this for observed
  // runs only), every posted message is stamped with the flow id of the
  // delivery being handled, and every delivery is recorded, which allocates
  // its flow id. Recording is passive: flow ids advance with deliveries on
  // the deterministic event loop, nothing here draws RNG or schedules
  // events, and the stamps stay out of every hash and trace record — so
  // observed and unobserved runs are byte-identical everywhere it counts.
  // The recorder must outlive the run or be cleared before it ends.
  void set_flow_recorder(FlowRecorder* recorder) { flows_ = recorder; }

  // Opens a root flow context for the duration of a scope: sends inside it
  // are causal roots, not children of whatever delivery happens to be on the
  // call stack. Node timers and lifecycle callbacks wrap themselves in one,
  // because a timer firing inside a handler's nested RunFor must not inherit
  // that handler's flow.
  class FlowRootScope {
   public:
    explicit FlowRootScope(Cluster* cluster)
        : cluster_(cluster), saved_(cluster->current_flow_) {
      cluster_->current_flow_ = 0;
    }
    ~FlowRootScope() { cluster_->current_flow_ = saved_; }
    FlowRootScope(const FlowRootScope&) = delete;
    FlowRootScope& operator=(const FlowRootScope&) = delete;

   private:
    Cluster* cluster_;
    uint64_t saved_;
  };

  // Trace hashing. When set, every delivery, drop, timer firing, crash,
  // shutdown, start, and partition window is hashed into the recorder; unset,
  // the run hashes nothing. The recorder must outlive the run.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  // Whole-cluster failure flag (e.g. the master aborted).
  void MarkClusterDown(const std::string& reason);
  bool cluster_down() const { return cluster_down_; }
  const std::string& cluster_down_reason() const { return cluster_down_reason_; }

  // Node whose handler is currently executing ("" between events). The
  // trigger needs this to kill the right process when the crash target is the
  // currently running node.
  const std::string& current_node() const { return current_node_.str(); }

  // Counters for tests and reports. dropped_messages() counts only
  // dead-at-delivery drops; partition drops are tallied separately in
  // plan_dropped_messages().
  uint64_t delivered_messages() const { return delivered_messages_; }
  uint64_t dropped_messages() const { return dropped_messages_; }
  uint64_t plan_dropped_messages() const { return plan_dropped_messages_; }
  // Partition windows installed.
  int partition_epochs() const { return partition_epochs_; }
  int crash_count() const { return crash_count_; }
  int shutdown_count() const { return shutdown_count_; }

 private:
  friend class Node;

  static constexpr Time kLatencyMs = 1;

  struct PartitionWindow {
    Time start_ms = 0;
    Time heal_ms = 0;  // exclusive
    std::vector<std::string> group;
  };

  void RegisterNode(std::unique_ptr<Node> node);
  // The delivery event of the message in in-flight slot `slot`.
  void OnCall(uint32_t slot) override;
  void DeliverNow(const Message& message);
  void TraceRecord(const char* kind, std::string_view detail);
  // Records "<from>><to> <method>" for a message event.
  void TraceMessage(MessageEvent kind, const Message& message);

  ctcommon::InternTable interner_;
  EventLoop loop_;
  ctlog::LogStore logs_;
  std::vector<std::unique_ptr<Node>> owned_nodes_;
  std::vector<Node*> route_;  // indexed by NodeId symbol id; nullptr gaps
  std::vector<NodeId> insertion_order_;
  bool cluster_down_ = false;
  std::string cluster_down_reason_;
  NodeId current_node_;
  std::vector<PartitionWindow> partitions_;
  // Messages in flight, one slot each; a scheduled delivery holds only its
  // slot index. Deque elements never move as the slab grows, and a slot is
  // freed only after its handler returns, so the `const Message&` a handler
  // holds stays valid while it posts and while it re-enters the loop.
  std::deque<Message> in_flight_;
  std::vector<uint32_t> free_slots_;
  TraceRecorder* trace_ = nullptr;
  FlowRecorder* flows_ = nullptr;
  // Flow id of the delivery being handled (0 between deliveries, inside a
  // root context, or with no flow recorder set).
  uint64_t current_flow_ = 0;
  uint64_t delivered_messages_ = 0;
  uint64_t dropped_messages_ = 0;
  uint64_t plan_dropped_messages_ = 0;
  int partition_epochs_ = 0;
  int crash_count_ = 0;
  int shutdown_count_ = 0;
};

}  // namespace ctsim

#endif  // SRC_SIM_CLUSTER_H_
