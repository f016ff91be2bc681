// Fuzzed workloads: deterministic op sequences over a system's grammar.
//
// A FuzzWorkload is the unit the fuzz phase generates and keeps in its
// corpus: the base workload size and a canonically ordered list of grammar
// ops (each an index into the model's GrammarOpDecl table plus a firing time,
// a target ordinal and a magnitude).
#ifndef SRC_FUZZ_WORKLOAD_H_
#define SRC_FUZZ_WORKLOAD_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

namespace ctfuzz {

// One grammar op instance. target_ordinal picks the victim among the live
// nodes matching the op's declared prefix (modulo the pool size at firing
// time), so the same op is meaningful at any --scale level; magnitude feeds
// the op's %MAG% placeholder. Ops order by their fields in declaration order.
struct FuzzOp {
  uint64_t time_ms = 0;     // firing time, virtual ms after the run starts
  int op_index = 0;         // index into ProgramModel::grammar_ops()
  uint32_t target_ordinal = 0;
  uint32_t magnitude = 1;

  auto operator<=>(const FuzzOp&) const = default;
};

struct FuzzWorkload {
  int workload_size = 1;    // base workload size handed to NewRun
  std::vector<FuzzOp> ops;  // canonically sorted (see Canonicalize)

  // Sorts ops into the canonical order.
  void Canonicalize() { std::sort(ops.begin(), ops.end()); }

  bool operator==(const FuzzWorkload&) const = default;
};

}  // namespace ctfuzz

#endif  // SRC_FUZZ_WORKLOAD_H_
