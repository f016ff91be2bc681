#include "src/analysis/call_graph.h"

#include <deque>

namespace ctanalysis {

namespace {

// Splits "Class.method" into its class part. Method names carry no dots, so
// the last dot is the separator (class names may be package-qualified).
std::string ClassOf(const std::string& method_id) {
  auto pos = method_id.rfind('.');
  return pos == std::string::npos ? std::string() : method_id.substr(0, pos);
}

std::string NameOf(const std::string& method_id) {
  auto pos = method_id.rfind('.');
  return pos == std::string::npos ? method_id : method_id.substr(pos + 1);
}

}  // namespace

CallGraph::CallGraph(const ctmodel::ProgramModel& model) : model_(&model) {
  // 1. Dispatch resolution. A virtual edge to T.m targets T.m itself (if
  // declared — abstract declarations are methods too) plus every declared
  // override S.m on a subtype of T.
  for (const auto& edge : model.call_edges()) {
    if (edge.kind != ctmodel::CallKind::kVirtual) {
      edges_.push_back({edge.caller, edge.callee, edge.kind});
      continue;
    }
    const std::string receiver = ClassOf(edge.callee);
    const std::string name = NameOf(edge.callee);
    bool resolved_static_target = false;
    for (const auto& method : model.methods()) {
      if (method.name != name || !model.IsSubtypeOf(method.clazz, receiver)) {
        continue;
      }
      edges_.push_back({edge.caller, method.id, ctmodel::CallKind::kVirtual});
      if (method.clazz == receiver) {
        resolved_static_target = true;
      }
    }
    if (!resolved_static_target) {
      // Keep the static target even if undeclared so reachability (and
      // ctlint) can see the dangling edge instead of silently dropping it.
      edges_.push_back({edge.caller, edge.callee, ctmodel::CallKind::kVirtual});
    }
  }

  // 2. Reverse adjacency for call-string enumeration (sync edges only).
  for (const auto& edge : edges_) {
    if (edge.kind != ctmodel::CallKind::kAsync) {
      sync_callers_[edge.callee].push_back(edge.caller);
    }
  }

  // 3. Context roots: entry points plus async-entered methods.
  for (const auto& method : model.methods()) {
    if (method.entry_point) {
      context_roots_.insert(method.id);
    }
  }
  for (const auto& edge : edges_) {
    if (edge.kind == ctmodel::CallKind::kAsync) {
      context_roots_.insert(edge.callee);
    }
  }

  // 4. Forward reachability from entry points over all edges.
  std::map<std::string, std::vector<std::string>> callees;
  for (const auto& edge : edges_) {
    callees[edge.caller].push_back(edge.callee);
  }
  std::deque<std::string> frontier;
  for (const auto& method : model.methods()) {
    if (method.entry_point) {
      reachable_.insert(method.id);
      frontier.push_back(method.id);
    }
  }
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop_front();
    auto it = callees.find(current);
    if (it == callees.end()) {
      continue;
    }
    for (const auto& callee : it->second) {
      if (reachable_.insert(callee).second) {
        frontier.push_back(callee);
      }
    }
  }

  // 5. Feasible roots (context roots that are reachable — a stack can really
  // be born there) and their forward closure over sync edges, which bounds
  // where a depth-truncated stack window may end.
  std::map<std::string, std::vector<std::string>> sync_callees;
  for (const auto& edge : edges_) {
    if (edge.kind != ctmodel::CallKind::kAsync) {
      sync_callees[edge.caller].push_back(edge.callee);
    }
  }
  for (const auto& root : context_roots_) {
    if (reachable_.count(root) > 0) {
      feasible_roots_.insert(root);
      if (sync_closure_of_feasible_roots_.insert(root).second) {
        frontier.push_back(root);
      }
    }
  }
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop_front();
    auto it = sync_callees.find(current);
    if (it == sync_callees.end()) {
      continue;
    }
    for (const auto& callee : it->second) {
      if (sync_closure_of_feasible_roots_.insert(callee).second) {
        frontier.push_back(callee);
      }
    }
  }
}

const std::vector<std::string>& CallGraph::SyncCallersOf(const std::string& method_id) const {
  static const std::vector<std::string> kEmpty;
  auto it = sync_callers_.find(method_id);
  return it == sync_callers_.end() ? kEmpty : it->second;
}

bool CallGraph::IsReachable(const std::string& method_id) const {
  return reachable_.count(method_id) > 0;
}

bool CallGraph::IsContextRoot(const std::string& method_id) const {
  return context_roots_.count(method_id) > 0;
}

bool CallGraph::IsFeasibleRoot(const std::string& method_id) const {
  return feasible_roots_.count(method_id) > 0;
}

bool CallGraph::IsSyncReachableFromFeasibleRoot(const std::string& method_id) const {
  return sync_closure_of_feasible_roots_.count(method_id) > 0;
}

}  // namespace ctanalysis
