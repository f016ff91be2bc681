// Heartbeat-based failure detection (the liveMonitor of Fig. 2).
//
// Masters in the mini systems run one of these: worker nodes report
// heartbeats; a periodic sweep declares any node silent for longer than the
// timeout LOST and fires the owner's recovery callback. Graceful shutdowns
// bypass the timeout by calling NotifyLeft directly from the worker's
// unregister RPC — the same effect as the paper's use of shutdown scripts to
// "let the node leave the cluster pro-actively, without waiting".
//
// Peers are tracked in a table indexed by interned NodeId id (one indexed
// store on the heartbeat hot path); everywhere ordering is observable — the
// sweep's on_lost firing order, tracked() — ids are sorted by their string
// form, matching the std::map<std::string, ...> this replaced byte for byte.
#ifndef SRC_SIM_FAILURE_DETECTOR_H_
#define SRC_SIM_FAILURE_DETECTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/node.h"
#include "src/sim/symbol.h"

namespace ctsim {

class FailureDetector {
 public:
  // `owner` is the master node hosting the monitor; `on_lost` runs in the
  // owner's context when a tracked node is declared dead.
  FailureDetector(Node* owner, Time timeout_ms, Time check_period_ms,
                  std::function<void(const std::string&)> on_lost)
      : owner_(owner),
        timeout_ms_(timeout_ms),
        check_period_ms_(check_period_ms),
        on_lost_(std::move(on_lost)) {}

  // Begins the periodic sweep.
  void Start();

  // Registers or refreshes a tracked node.
  void Heartbeat(NodeId node_id);
  void Heartbeat(const std::string& node_id);

  // Stops tracking without firing on_lost (node deregistered cleanly and the
  // caller already ran its leave path).
  void Forget(NodeId node_id);
  void Forget(const std::string& node_id);

  // Graceful-leave fast path: fires on_lost immediately.
  void NotifyLeft(NodeId node_id);
  void NotifyLeft(const std::string& node_id);

  bool IsTracked(NodeId node_id) const;
  bool IsTracked(const std::string& node_id) const;
  std::vector<std::string> tracked() const;

 private:
  struct Entry {
    NodeId id;
    Time last = 0;
    bool tracked = false;
  };

  void Sweep();
  NodeId Lookup(const std::string& node_id) const;

  Node* owner_;
  Time timeout_ms_;
  Time check_period_ms_;
  std::function<void(const std::string&)> on_lost_;
  // Indexed by NodeId id; ids past the end were never tracked.
  std::vector<Entry> last_heartbeat_;
};

}  // namespace ctsim

#endif  // SRC_SIM_FAILURE_DETECTOR_H_
