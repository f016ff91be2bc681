#include "src/analysis/model_lint.h"

#include <cctype>
#include <cstring>
#include <set>
#include <utility>

#include "src/analysis/call_graph.h"
#include "src/analysis/crash_point_analysis.h"
#include "src/common/strings.h"
#include "src/logging/statement.h"

namespace ctanalysis {

namespace {

std::string PointSubject(const ctmodel::AccessPointDecl& point) {
  return "point#" + std::to_string(point.id) + " (" + point.clazz + "." + point.method + ":" +
         std::to_string(point.line) + ")";
}

std::string IoPointSubject(const ctmodel::IoPointDecl& point) {
  return "io#" + std::to_string(point.id) + " (" + point.io_class + "." + point.io_method +
         " @ " + point.callsite + ")";
}

// A decl token embeds a concrete node index when a node-role stem is followed
// immediately by a digit run ("node3", "rserver12"), or when it names a
// host:port instance ("node1:42349"). Model declarations describe *roles* in
// the target program — under --scale the deployment is stamped out N times,
// and a decl pinned to one member of one deployment silently stops matching
// everything beyond the first replica. Deliberately handwritten (the two
// shapes are trivial) so the linter stays regex-free.
bool EmbedsConcreteNodeIndex(const std::string& text) {
  const std::string lower = ctcommon::ToLower(text);
  static const char* kStems[] = {"node", "dnode", "rserver", "zkpeer", "cass", "namenode"};
  for (const char* stem : kStems) {
    const size_t stem_len = std::strlen(stem);
    for (size_t pos = lower.find(stem); pos != std::string::npos;
         pos = lower.find(stem, pos + 1)) {
      const size_t after = pos + stem_len;
      if (after < lower.size() && std::isdigit(static_cast<unsigned char>(lower[after]))) {
        return true;
      }
    }
  }
  // host:port — a letter, a digit run, ':', a digit: "host7:9000".
  for (size_t i = 1; i + 1 < lower.size(); ++i) {
    if (lower[i] != ':' || !std::isdigit(static_cast<unsigned char>(lower[i + 1]))) {
      continue;
    }
    size_t digits = i;
    while (digits > 0 && std::isdigit(static_cast<unsigned char>(lower[digits - 1]))) {
      --digits;
    }
    if (digits < i && digits > 0 &&
        std::isalpha(static_cast<unsigned char>(lower[digits - 1]))) {
      return true;
    }
  }
  return false;
}

}  // namespace

int LintResult::CountOf(const std::string& check) const {
  int count = 0;
  for (const auto& issue : issues) {
    if (issue.check == check) {
      ++count;
    }
  }
  return count;
}

LintResult LintModel(const ctmodel::ProgramModel& model) {
  LintResult result;
  auto report = [&](std::string check, std::string subject, std::string message) {
    result.issues.push_back({std::move(check), std::move(subject), std::move(message)});
  };

  const int num_points = model.NumAccessPoints();
  for (const auto& point : model.access_points()) {
    if (model.FindField(point.field_id) == nullptr) {
      report("dangling-field", PointSubject(point),
             "references undeclared field '" + point.field_id + "'");
    }
    if (!point.collection_op.empty() && !IsCollectionReadOp(point.collection_op) &&
        !IsCollectionWriteOp(point.collection_op)) {
      report("unknown-op", PointSubject(point),
             "collection op '" + point.collection_op +
                 "' matches neither Table 3 keyword list");
    }
    if (!point.promoted_sites.empty() && !point.returned_directly) {
      report("dangling-promotion", PointSubject(point),
             "has promoted_sites but is not returned_directly");
    }
    for (int site : point.promoted_sites) {
      if (site < 0 || site >= num_points) {
        report("dangling-promotion", PointSubject(point),
               "promoted site id " + std::to_string(site) + " is out of range");
      } else if (site == point.id) {
        report("dangling-promotion", PointSubject(point), "promotes to itself");
      }
    }
    if (point.executable && model.MethodsOf(point.clazz).empty()) {
      report("method-less-class", PointSubject(point),
             "executable point in class '" + point.clazz + "' which declares no methods");
    }
  }

  const ctlog::StatementRegistry& registry = ctlog::StatementRegistry::Instance();
  for (const auto& binding : model.log_bindings()) {
    const std::string subject = "log#" + std::to_string(binding.statement_id);
    for (const auto& arg : binding.args) {
      if (!arg.field_id.empty() && model.FindField(arg.field_id) == nullptr) {
        report("dangling-field", subject,
               "log binding references undeclared field '" + arg.field_id + "'");
      }
    }
    // Cross-check the registered statement location against the declared
    // methods: a bound statement claims to live in a Class.method, and that
    // method must exist for the claim to mean anything.
    if (binding.statement_id < 0 || binding.statement_id >= registry.size()) {
      report("dangling-log-location", subject, "statement id is not registered");
      continue;
    }
    const std::string& location = registry.Get(binding.statement_id).location;
    if (!location.empty() && model.FindMethod(location) == nullptr) {
      report("dangling-log-location", subject,
             "statement location '" + location + "' is not a declared method");
    }
  }

  // Call-edge and reachability checks share one graph build.
  CallGraph graph(model);
  for (const auto& edge : model.call_edges()) {
    const std::string subject = edge.caller + " -> " + edge.callee;
    if (model.FindMethod(edge.caller) == nullptr) {
      report("dangling-edge", subject, "caller is not a declared method");
    }
    if (edge.kind == ctmodel::CallKind::kVirtual) {
      // Virtual targets may be abstract declarations or overrides; require
      // that dispatch resolves to at least one declared method.
      const auto dot = edge.callee.rfind('.');
      const std::string receiver = dot == std::string::npos ? "" : edge.callee.substr(0, dot);
      const std::string name = dot == std::string::npos ? edge.callee : edge.callee.substr(dot + 1);
      bool resolved = false;
      for (const auto& method : model.methods()) {
        if (method.name == name && model.IsSubtypeOf(method.clazz, receiver)) {
          resolved = true;
          break;
        }
      }
      if (!resolved) {
        report("dangling-edge", subject, "virtual call resolves to no declared method");
      }
    } else if (model.FindMethod(edge.callee) == nullptr) {
      report("dangling-edge", subject, "callee is not a declared method");
    }
  }

  for (const auto& point : model.access_points()) {
    if (!point.executable) {
      continue;
    }
    const std::string anchor = ctmodel::ProgramModel::ContextMethodOf(point);
    if (!graph.IsReachable(anchor)) {
      report("unreachable-point", PointSubject(point),
             "anchor method '" + anchor + "' is unreachable from every entry point");
    }
  }

  // Declared network-fault windows must be triggerable: an armable anchor
  // point (in range, executable, statically reachable), a positive partition
  // window, and a bug id giving the window its ground truth.
  for (size_t i = 0; i < model.network_fault_windows().size(); ++i) {
    const ctmodel::NetworkFaultWindowDecl& window = model.network_fault_windows()[i];
    const std::string subject =
        "netwindow#" + std::to_string(i) + " (point " + std::to_string(window.point) + ")";
    if (window.partition_ms == 0) {
      report("network-window-invalid", subject,
             "partition window is zero — the heal coincides with the cut");
    }
    if (window.bug_id.empty()) {
      report("network-window-invalid", subject,
             "no bug id — the window declares no ground truth to assert");
    }
    if (window.point < 0 || window.point >= num_points) {
      report("network-window-invalid", subject, "anchor point id is out of range");
      continue;
    }
    const ctmodel::AccessPointDecl& point = model.access_point(window.point);
    if (!point.executable) {
      report("network-window-invalid", subject,
             "anchor point " + PointSubject(point) + " is not executable — no runtime hook to arm");
      continue;
    }
    const std::string anchor = ctmodel::ProgramModel::ContextMethodOf(point);
    if (!graph.IsReachable(anchor)) {
      report("network-window-invalid", subject,
             "anchor '" + anchor + "' is unreachable from every entry point");
    }
  }

  // Scale invariance: declarations must not embed concrete node indices or
  // host:port instances. The --scale knob multiplies replicated roles, so a
  // decl naming one concrete member ("rserver3.open") matches only the first
  // replica of a scaled deployment and quietly under-counts the rest.
  for (const auto& point : model.access_points()) {
    for (const std::string* token : {&point.clazz, &point.method, &point.context_method}) {
      if (EmbedsConcreteNodeIndex(*token)) {
        report("scale-invariant-decl", PointSubject(point),
               "'" + *token + "' embeds a concrete node index — declare the role, "
               "not one deployment member");
        break;  // one finding per point is enough to act on
      }
    }
  }

  // Grammar ops must target the declared program model: an RPC op's
  // target_method anchors the generated message in a declared handler (a typo
  // yields an op no node ever handles, silently weakening every fuzz
  // campaign), and a crash/shutdown op's target_class names the role being
  // killed, which must declare methods. Malformed shape — duplicate or empty
  // names, no victim prefix, a non-positive weight, an empty firing window —
  // is reported under the same check: each makes the op undrawable or
  // untargetable.
  std::set<std::string> grammar_op_names;
  for (const auto& op : model.grammar_ops()) {
    const std::string subject = "grammar-op '" + op.name + "'";
    if (op.name.empty()) {
      report("grammar-op-unknown-target", subject, "op has an empty name");
    } else if (!grammar_op_names.insert(op.name).second) {
      report("grammar-op-unknown-target", subject, "op name is declared more than once");
    }
    if (op.target_prefix.empty()) {
      report("grammar-op-unknown-target", subject,
             "no target_prefix to draw a victim node from");
    }
    if (op.weight < 1) {
      report("grammar-op-unknown-target", subject,
             "weight " + std::to_string(op.weight) + " can never be drawn");
    }
    if (op.max_time_ms <= op.min_time_ms) {
      report("grammar-op-unknown-target", subject,
             "firing window [" + std::to_string(op.min_time_ms) + ", " +
                 std::to_string(op.max_time_ms) + ") is empty");
    }
    if (op.kind == ctmodel::GrammarOpKind::kRpc) {
      if (model.FindMethod(op.target_method) == nullptr) {
        report("grammar-op-unknown-target", subject,
               "target method '" + op.target_method + "' is not a declared method");
      }
    } else if (model.MethodsOf(op.target_class).empty()) {
      report("grammar-op-unknown-target", subject,
             "target class '" + op.target_class + "' declares no methods — not a role "
             "the grammar can kill");
    }
  }

  // IO points get the same treatment as access points: their method pair must
  // be declared, and executable callsites must be declared, reachable methods.
  std::set<std::pair<std::string, std::string>> declared_io_methods;
  for (const auto& io_method : model.io_methods()) {
    declared_io_methods.insert({io_method.clazz, io_method.method});
  }
  for (const auto& point : model.io_points()) {
    if (declared_io_methods.count({point.io_class, point.io_method}) == 0) {
      report("dangling-io-method", IoPointSubject(point),
             "IO method '" + point.io_class + "." + point.io_method +
                 "' is not a declared IoMethodDecl");
    }
    if (!point.executable) {
      continue;
    }
    if (model.FindMethod(point.callsite) == nullptr) {
      report("dangling-io-callsite", IoPointSubject(point),
             "callsite '" + point.callsite + "' is not a declared method");
    } else if (!graph.IsReachable(point.callsite)) {
      report("unreachable-io-point", IoPointSubject(point),
             "callsite '" + point.callsite + "' is unreachable from every entry point");
    }
  }

  return result;
}

}  // namespace ctanalysis
