// Static call graph over a ProgramModel (the WALA substitute).
//
// The original CrashTuner builds a WALA call graph to bound Definition 1's
// call-string contexts and to know which static crash points the workload can
// reach at all. Our models declare the same structure explicitly: MethodDecls
// ("Class.method", matching the ScopedFrame strings the runtime pushes) and
// CallEdgeDecls. Construction resolves virtual dispatch against the model's
// subtype edges — an edge whose static target is T.m fans out to every
// declared override S.m with S <: T — and computes reachability from the
// declared entry points.
//
// Async edges (executor submits, timer schedules, failure-detector callbacks)
// are part of reachability but *not* of call strings: the callee runs on a
// fresh stack, so it starts a new context exactly as the runtime tracer
// observes it. Such methods, along with entry points, are the graph's
// "context roots" — the only methods a bounded call string may begin at.
#ifndef SRC_ANALYSIS_CALL_GRAPH_H_
#define SRC_ANALYSIS_CALL_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/model/program_model.h"

namespace ctanalysis {

// One dispatch-resolved call. kVirtual declarations appear here once per
// concrete target; kStatic/kAsync pass through unchanged.
struct ResolvedCall {
  std::string caller;
  std::string callee;
  ctmodel::CallKind kind = ctmodel::CallKind::kStatic;
};

class CallGraph {
 public:
  explicit CallGraph(const ctmodel::ProgramModel& model);

  const ctmodel::ProgramModel& model() const { return *model_; }

  // All post-dispatch edges.
  const std::vector<ResolvedCall>& edges() const { return edges_; }

  // Synchronous callers of `method_id` (async edges excluded — an async
  // callee never sees its scheduler on the stack).
  const std::vector<std::string>& SyncCallersOf(const std::string& method_id) const;

  // Reachability from entry points, over sync and async edges alike.
  bool IsReachable(const std::string& method_id) const;
  const std::set<std::string>& reachable() const { return reachable_; }

  // True if a runtime call string can begin at `method_id`: a declared entry
  // point or the target of an async edge.
  bool IsContextRoot(const std::string& method_id) const;

  // A feasible root is a context root some workload can actually give birth
  // to a stack at: entry points are feasible by definition, async callees
  // only if their scheduling site is itself reachable. Complete call strings
  // (fewer frames than the depth bound) are realizable iff their outermost
  // frame is a feasible root.
  bool IsFeasibleRoot(const std::string& method_id) const;

  // Forward closure of the feasible roots over sync edges only. A method in
  // this set can sit at the *bottom of a visible stack window*: either it is
  // a feasible root itself, or some realizable stack extends below it and the
  // tracer's depth cap truncated the frames underneath. Truncated call
  // strings (exactly `depth` frames) are realizable iff their outermost frame
  // is in this closure.
  bool IsSyncReachableFromFeasibleRoot(const std::string& method_id) const;

  int num_resolved_edges() const { return static_cast<int>(edges_.size()); }

 private:
  const ctmodel::ProgramModel* model_;
  std::vector<ResolvedCall> edges_;
  std::map<std::string, std::vector<std::string>> sync_callers_;
  std::set<std::string> reachable_;
  std::set<std::string> context_roots_;
  std::set<std::string> feasible_roots_;
  std::set<std::string> sync_closure_of_feasible_roots_;
};

}  // namespace ctanalysis

#endif  // SRC_ANALYSIS_CALL_GRAPH_H_
