// Program model: the static view of a system under test.
//
// The original CrashTuner reads this information out of Java bytecode with
// WALA: the class hierarchy, collection types, instance fields, every
// getField/putField and collection-API call site, logging statements, and IO
// call sites. Our mini systems declare the same structure here when they
// build their model. The declared structure and the executable code are kept
// consistent by construction: every traced access in a mini system fires the
// AccessPointDecl id it declares.
//
// Models also carry *synthetic* entries — classes, fields and access points
// taken from catalogs of real Hadoop-ecosystem names that exist in the
// program but are never executed by the test workload. They give the static
// analysis a realistically large and noisy universe (the Table 10 totals are
// dominated by such code in the real systems too); the profiler naturally
// discards them because they never produce a dynamic hit.
#ifndef SRC_MODEL_PROGRAM_MODEL_H_
#define SRC_MODEL_PROGRAM_MODEL_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ctmodel {

// A class/type in the system under test.
struct TypeDecl {
  std::string name;                        // e.g. "yarn.api.records.NodeId"
  std::string supertype;                   // "" if none modelled
  std::vector<std::string> element_types;  // non-empty → collection of those
  bool is_base = false;                    // Integer, String, Enum, byte[], File
  bool closeable = false;                  // implements java.io.Closeable (Table 8)
};

// An instance field.
struct FieldDecl {
  std::string id;     // "Class.field"
  std::string clazz;  // containing class
  std::string name;
  std::string type;  // declared type name
  bool set_only_in_constructor = false;
};

// A method in the system under test. The id is "Class.method", matching the
// frame strings ScopedFrame pushes at runtime. Entry points are the roots the
// call-graph reachability starts from: RPC/event handlers invoked directly by
// the workload, plus methods scheduled from timers or lambdas the model does
// not represent as callers.
struct MethodDecl {
  std::string id;     // "Class.method"; derived from clazz+name if empty
  std::string clazz;  // declaring class
  std::string name;
  bool entry_point = false;  // call-graph root (handler / timer / main)
  bool synthetic = false;    // catalog entry, never executed
};

// How a call site binds to its target (WALA dispatch kinds, §2 of the paper's
// background). Virtual calls name the static receiver type's method; dispatch
// resolution fans them out to every subtype override that exists in the model.
// Async edges (executor submits, timer schedules) propagate reachability but
// start a fresh call string: the callee runs on another thread with an empty
// stack, exactly as ScopedFrame observes it.
enum class CallKind { kStatic, kVirtual, kAsync };

struct CallEdgeDecl {
  std::string caller;  // MethodDecl id
  std::string callee;  // MethodDecl id (for kVirtual: the static target)
  CallKind kind = CallKind::kStatic;
};

enum class AccessKind { kRead, kWrite };

// One program point that reads or writes a field (directly or through a
// collection API call).
struct AccessPointDecl {
  int id = -1;
  std::string field_id;
  AccessKind kind = AccessKind::kRead;
  std::string clazz;   // class containing the access
  std::string method;  // method containing the access
  int line = 0;
  std::string collection_op;  // e.g. "get", "put"; empty for plain field access
  // Read-only attributes the optimizations key on (§3.1.2).
  bool value_unused = false;       // result unused or logging/toString-only
  bool sanity_checked = false;     // result null-checked before use
  bool returned_directly = false;  // result only used in a return statement
  // Promotion targets: ids of the call-site access points this point expands
  // to when returned_directly is set (the YARN-9164 43-call-site case).
  std::vector<int> promoted_sites;
  bool executable = false;  // wired to a runtime hook in the mini system
  bool synthetic = false;   // catalog entry, never executed
  // Method whose frame is innermost when the runtime hook fires, when that
  // differs from clazz.method: some hooks sit before their own frame push or
  // in a callee inlined into the caller's frame. Empty → clazz.method.
  std::string context_method;
};

// Per-placeholder description of a logging statement's arguments.
struct LogArg {
  std::string type;      // static type of the logged expression
  std::string field_id;  // originating field, if the expression reads one
};

struct LogBinding {
  int statement_id = -1;
  std::vector<LogArg> args;
};

// An IO method (public method of a Closeable class whose name starts with
// read/write/flush/close) and a call site of one (§4.2.2, Table 8).
struct IoMethodDecl {
  std::string clazz;
  std::string method;
};

struct IoPointDecl {
  int id = -1;
  std::string io_class;
  std::string io_method;
  std::string callsite;  // "Class.method" performing the call
  bool executable = false;
};

// A model-declared network-fault bug window: when the anchor access point
// fires in network-fault mode, the resolved node is partitioned from the
// cluster for `partition_ms` (long enough for the failure detector to expire
// it) and then healed — the message-race variant of crash-on-appearance.
// `bug_id` names the seeded message-race bug the window is expected to
// expose; ctlint's network-window-invalid check verifies the anchor is
// armable and the window well-formed.
struct NetworkFaultWindowDecl {
  int point = -1;            // anchor access point (armed like a crash point)
  uint64_t partition_ms = 0; // isolation window before the heal
  std::string bug_id;        // expected message-race bug (known-bug table id)
};

// How a fuzz-grammar op acts on the running cluster.
enum class GrammarOpKind {
  kRpc,       // post a message to a node drawn from target_prefix
  kCrash,     // fail-stop a node drawn from target_prefix
  kShutdown,  // graceful decommission of a node drawn from target_prefix
};

// One production of the per-system workload-fuzzing grammar (submit / kill /
// decommission / flush / leader-churn / ...). The generator draws ops by
// weight, picks a firing time inside [min_time_ms, max_time_ms], and resolves
// the victim node by ordinal among the live nodes whose id starts with
// target_prefix — so an op is meaningful at any --scale level. For kRpc the
// verb is the method-name part of target_method, which must be a declared
// handler (ctlint's grammar-op-unknown-target check); for node ops
// target_class names the role being killed, which must be a declared class.
struct GrammarOpDecl {
  std::string name;           // e.g. "yarn.kill-worker"; unique per model
  GrammarOpKind kind = GrammarOpKind::kRpc;
  std::string target_method;  // kRpc: handler MethodDecl id ("Class.method")
  std::string rpc_verb;       // kRpc: wire verb; method-name part if empty
  std::string target_class;   // kCrash/kShutdown: role class of the victim
  std::string target_prefix;  // node-id prefix the op picks its target from
  // kRpc payload template; "%NODE%" substitutes the node id drawn from
  // arg_prefix (target_prefix if empty), "%MAG%" the drawn magnitude.
  std::vector<std::pair<std::string, std::string>> args;
  std::string arg_prefix;
  int weight = 1;              // relative draw weight within the grammar
  uint64_t min_time_ms = 500;  // firing window in virtual ms after Start()
  uint64_t max_time_ms = 15000;
  int max_magnitude = 1;  // %MAG% drawn uniformly from [1, max_magnitude]
};

class ProgramModel {
 public:
  explicit ProgramModel(std::string system_name) : system_name_(std::move(system_name)) {}

  const std::string& system_name() const { return system_name_; }

  // --- Construction -------------------------------------------------------
  void AddType(TypeDecl type);
  void AddField(FieldDecl field);
  void AddMethod(MethodDecl method);
  void AddCallEdge(CallEdgeDecl edge);
  // Assigns and returns the access-point id.
  int AddAccessPoint(AccessPointDecl point);
  void BindLog(LogBinding binding);
  void AddIoMethod(IoMethodDecl method);
  int AddIoPoint(IoPointDecl point);
  void AddNetworkFaultWindow(NetworkFaultWindowDecl window);
  void AddGrammarOp(GrammarOpDecl op);

  // --- Queries -------------------------------------------------------------
  const TypeDecl* FindType(const std::string& name) const;
  const FieldDecl* FindField(const std::string& id) const;
  const MethodDecl* FindMethod(const std::string& id) const;
  const AccessPointDecl& access_point(int id) const;
  // Ids of the access points wired to a runtime hook: every point a run can
  // fire.
  const std::set<int>& executable_access_points() const { return executable_access_points_; }

  // Innermost runtime frame for an access point: context_method if set,
  // otherwise "clazz.method".
  static std::string ContextMethodOf(const AccessPointDecl& point);

  // True if `name` equals `ancestor` or transitively extends it.
  bool IsSubtypeOf(const std::string& name, const std::string& ancestor) const;
  // Direct subtypes of `name`.
  std::vector<std::string> SubtypesOf(const std::string& name) const;
  // Collection types having `name` among their element types.
  std::vector<std::string> CollectionsOf(const std::string& name) const;
  // Methods declared by class `clazz`.
  std::vector<const MethodDecl*> MethodsOf(const std::string& clazz) const;

  const std::vector<TypeDecl>& types() const { return types_; }
  const std::vector<FieldDecl>& fields() const { return fields_; }
  const std::vector<MethodDecl>& methods() const { return methods_; }
  const std::vector<CallEdgeDecl>& call_edges() const { return call_edges_; }
  const std::vector<AccessPointDecl>& access_points() const { return access_points_; }
  const std::vector<LogBinding>& log_bindings() const { return log_bindings_; }
  const std::vector<IoMethodDecl>& io_methods() const { return io_methods_; }
  const std::vector<IoPointDecl>& io_points() const { return io_points_; }
  const std::vector<NetworkFaultWindowDecl>& network_fault_windows() const {
    return network_fault_windows_;
  }
  const std::vector<GrammarOpDecl>& grammar_ops() const { return grammar_ops_; }

  // Table 10 / Table 8 totals.
  int NumTypes() const { return static_cast<int>(types_.size()); }
  int NumFields() const { return static_cast<int>(fields_.size()); }
  int NumMethods() const { return static_cast<int>(methods_.size()); }
  int NumCallEdges() const { return static_cast<int>(call_edges_.size()); }
  int NumAccessPoints() const { return static_cast<int>(access_points_.size()); }
  int NumIoClasses() const;
  int NumIoMethods() const { return static_cast<int>(io_methods_.size()); }
  int NumIoPoints() const { return static_cast<int>(io_points_.size()); }
  int NumNetworkFaultWindows() const { return static_cast<int>(network_fault_windows_.size()); }
  int NumGrammarOps() const { return static_cast<int>(grammar_ops_.size()); }

 private:
  std::string system_name_;
  std::vector<TypeDecl> types_;
  std::map<std::string, int> type_index_;
  std::vector<FieldDecl> fields_;
  std::map<std::string, int> field_index_;
  std::vector<MethodDecl> methods_;
  std::map<std::string, int> method_index_;
  std::vector<CallEdgeDecl> call_edges_;
  std::vector<AccessPointDecl> access_points_;
  std::set<int> executable_access_points_;
  std::vector<LogBinding> log_bindings_;
  std::vector<IoMethodDecl> io_methods_;
  std::vector<IoPointDecl> io_points_;
  std::vector<NetworkFaultWindowDecl> network_fault_windows_;
  std::vector<GrammarOpDecl> grammar_ops_;
};

}  // namespace ctmodel

#endif  // SRC_MODEL_PROGRAM_MODEL_H_
