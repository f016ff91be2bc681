// Simulated Java exceptions and control-flow signals.
//
// The systems the paper tests are JVM programs; a crash-recovery bug
// typically manifests as a runtime exception (NullPointerException when a
// removed node is dereferenced, InvalidStateTransitionException from a state
// machine, IOException from a half-written file). We model them as
// SimException values thrown by mini-system code and caught at the message
// dispatch boundary, where they are logged and handed to the component's
// exception policy — exactly the observable surface the paper's oracle reads.
#ifndef SRC_SIM_EXCEPTION_H_
#define SRC_SIM_EXCEPTION_H_

#include <string>
#include <utility>

namespace ctsim {

struct SimException {
  std::string type;     // e.g. "NullPointerException"
  std::string message;  // free-form detail

  SimException(std::string type_in, std::string message_in)
      : type(std::move(type_in)), message(std::move(message_in)) {}
};

// Thrown when the node executing the current handler is crashed mid-handler
// (the post-write trigger scenario): the rest of the handler must not run,
// just as the rest of a Java method does not run past kill -9.
struct NodeCrashedSignal {};

}  // namespace ctsim

#endif  // SRC_SIM_EXCEPTION_H_
