// Bounded call-string enumeration (the static half of Definition 1).
//
// For every access point the enumeration walks the call graph backwards from
// the point's anchor method (the frame that is innermost when its runtime
// hook fires) and produces each call string the bounded runtime stack could
// show: strings of fewer than `depth` frames must begin at a context root
// (the stack was born there), while strings of exactly `depth` frames are
// also admitted as truncations of deeper stacks — mirroring how the tracer
// caps its call strings at its stack depth. Keys use the tracer's canonical
// "inner<outer<..." encoding, so a statically enumerated context and a
// profiler-observed DynamicPoint compare by string equality.
//
// The enumeration is an over-approximation: every context the profiler can
// observe is enumerated (100% recall is a checked invariant), while paths the
// workload never takes make precision < 1. CompareWithProfile reports both.
//
// Per-call-string feasibility (`prune_infeasible`) tightens the set without
// touching recall: a complete string is realizable only if its outermost
// frame is a *feasible* root (reachable from an entry point — the stack can
// actually be born there), and a truncated string only if its outermost frame
// lies in the sync-edge closure of the feasible roots (some realizable stack
// extends below the visible window). Profiler-observed strings always satisfy
// both — real stacks are born at executed roots — so pruning removes
// individual impossible strings instead of dropping whole crash points.
// Prune-then-enumerate is exactly enumerate-then-filter by IsFeasibleKey (a
// property-tested invariant).
#ifndef SRC_ANALYSIS_CONTEXT_ENUMERATION_H_
#define SRC_ANALYSIS_CONTEXT_ENUMERATION_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/model/program_model.h"

namespace ctanalysis {

struct StaticContextResult {
  int depth = 0;
  // Access-point id → statically possible stack keys. Points whose anchor is
  // statically unreachable (or undeclared) get no entry.
  std::map<int, std::set<std::string>> contexts_by_point;
  // Access points whose anchor method is not reachable from any entry point.
  std::set<int> unreachable_points;
  // Reachable points whose every enumerated call string was pruned as
  // infeasible (only populated when pruning is on); they get no entry in
  // contexts_by_point.
  std::set<int> infeasible_points;
  // Point-level count of call strings removed by per-call-string pruning:
  // sum over points of |unpruned contexts| - |feasible contexts|.
  int pruned_call_strings = 0;

  int TotalContexts() const;
  bool Contains(int point_id, const std::string& stack_key) const;
};

class ContextEnumeration {
 public:
  explicit ContextEnumeration(const CallGraph* graph) : graph_(graph) {}

  // Enumerates contexts for every access point in the model (synthetic and
  // executable alike — the static analysis cannot tell them apart).
  // `depth` matches the tracer's stack depth, 1..6 in the ablation. With
  // `prune_infeasible` each enumerated call string is additionally checked
  // against IsFeasibleKey and dropped if no workload entry can realize it.
  StaticContextResult EnumerateAll(int depth, bool prune_infeasible = false) const;

  // Call strings for one anchor method; exposed for tests and ctlint.
  std::set<std::string> EnumerateMethod(const std::string& method_id, int depth,
                                        bool prune_infeasible = false) const;

  // The per-call-string feasibility predicate, on a canonical
  // "inner<outer<..." key: a complete string (< depth frames) must begin at a
  // feasible root; a truncated string (exactly depth frames) must begin in
  // the sync closure of the feasible roots. Filtering an unpruned enumeration
  // through this predicate equals enumerating with prune_infeasible=true.
  bool IsFeasibleKey(const std::string& stack_key, int depth) const;

 private:
  const CallGraph* graph_;
};

// Static-vs-profiled cross-check. `observed` are profiler dynamic points.
struct ContextCrossCheck {
  int observed = 0;            // distinct profiled ⟨point, context⟩ pairs
  int matched = 0;             // of those, statically enumerated
  int enumerated = 0;          // static pairs over the *profiled* point set
  std::vector<std::pair<int, std::string>> missed;  // observed but not enumerated

  // The paper's soundness direction: every observed context must be
  // enumerated. 1.0 when `missed` is empty.
  double Recall() const;
  // Fraction of enumerated contexts the workload actually exercised.
  double Precision() const;
};

template <typename DynamicPointSet>
ContextCrossCheck CompareWithProfile(const StaticContextResult& result,
                                     const DynamicPointSet& observed) {
  ContextCrossCheck check;
  std::set<int> profiled_points;
  for (const auto& dynamic_point : observed) {
    ++check.observed;
    profiled_points.insert(dynamic_point.point_id);
    if (result.Contains(dynamic_point.point_id, dynamic_point.stack_key)) {
      ++check.matched;
    } else {
      check.missed.emplace_back(dynamic_point.point_id, dynamic_point.stack_key);
    }
  }
  for (int point_id : profiled_points) {
    auto it = result.contexts_by_point.find(point_id);
    if (it != result.contexts_by_point.end()) {
      check.enumerated += static_cast<int>(it->second.size());
    }
  }
  return check;
}

}  // namespace ctanalysis

#endif  // SRC_ANALYSIS_CONTEXT_ENUMERATION_H_
