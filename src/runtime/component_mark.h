// Component dwell marks for mini-system node code.
//
// A mark names one sweep of a component hot path — a quorum broadcast
// round, a block-report handling, an RM node-list refresh — and the model
// role class doing the work. It charges the virtual time since the run's
// previous mark to that component and counts one event (see
// ctobs::RunObserver::MarkComponent); `ctstat --top` renders the totals.
// The role must be a model class with methods, and every role the fuzz
// grammar kills needs a mark; campaign_test's ComponentMarks case checks
// both on each system's observed campaign. The observer comes off the
// thread-bound RunContext (the executor binds it for the duration of the
// run), so node code needs no plumbing and an unobserved run pays one
// thread-local read and one branch.
//
// Usage, at the top of a node handler or timer body:
//   ctrt::MarkComponent(loop(), "quorum-broadcast", "QuorumPeer");
#ifndef SRC_RUNTIME_COMPONENT_MARK_H_
#define SRC_RUNTIME_COMPONENT_MARK_H_

#include <string_view>

#include "src/runtime/run_context.h"
#include "src/sim/event_loop.h"

namespace ctrt {

inline void MarkComponent(const ctsim::EventLoop& loop, std::string_view name,
                          std::string_view role) {
  ctobs::RunObserver& observer = RunContext::Current().observer();
  if (observer.enabled()) {
    observer.MarkComponent(loop.Now(), name, role);
  }
}

}  // namespace ctrt

#endif  // SRC_RUNTIME_COMPONENT_MARK_H_
