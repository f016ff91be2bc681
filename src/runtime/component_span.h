// Component spans for mini-system node code.
//
// A ComponentSpan marks one sweep of a component hot path — a quorum
// broadcast round, a block-report handling, an RM node-list refresh — as a
// span nested under whatever phase span is open, tagged with the model role
// class doing the work. The observer comes off the thread-bound RunContext
// (the executor binds it for the duration of the run), so node code needs no
// plumbing and unobserved runs pay one thread-local read plus two branches,
// with no string built.
//
// Usage, inside a node handler or timer body:
//   ctrt::ComponentSpan span(&loop(), "quorum-broadcast", "QuorumPeer");
#ifndef SRC_RUNTIME_COMPONENT_SPAN_H_
#define SRC_RUNTIME_COMPONENT_SPAN_H_

#include <string>
#include <string_view>

#include "src/obs/span.h"
#include "src/runtime/run_context.h"

namespace ctrt {

class ComponentSpan {
 public:
  ComponentSpan(const ctsim::EventLoop* loop, std::string_view name, std::string_view component)
      : span_(&RunContext::Current().observer(), loop, name, "component", component) {}

  void AddArg(std::string key, std::string value) {
    span_.AddArg(std::move(key), std::move(value));
  }

 private:
  ctobs::ScopedSpan span_;
};

}  // namespace ctrt

#endif  // SRC_RUNTIME_COMPONENT_SPAN_H_
