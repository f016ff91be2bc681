// Fuzzed workloads: deterministic op sequences over a system's grammar.
//
// A FuzzWorkload is the unit the fuzz phase generates, stores in its corpus
// and replays: the base workload size, the seed of the run that will execute
// it, and a canonically ordered list of grammar ops (each an index into the
// model's GrammarOpDecl table plus a firing time, a target ordinal and a
// magnitude). The textual form is the corpus wire format — one line per op —
// and parsing it is strict: any structural anomaly throws instead of yielding
// a silently different workload.
#ifndef SRC_FUZZ_WORKLOAD_H_
#define SRC_FUZZ_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ctfuzz {

// One grammar op instance. target_ordinal picks the victim among the live
// nodes matching the op's declared prefix (modulo the pool size at firing
// time), so the same op is meaningful at any --scale level; magnitude feeds
// the op's %MAG% placeholder.
struct FuzzOp {
  uint64_t time_ms = 0;     // firing time, virtual ms after the run starts
  int op_index = 0;         // index into ProgramModel::grammar_ops()
  uint32_t target_ordinal = 0;
  uint32_t magnitude = 1;

  bool operator==(const FuzzOp& other) const {
    return time_ms == other.time_ms && op_index == other.op_index &&
           target_ordinal == other.target_ordinal && magnitude == other.magnitude;
  }
  bool operator<(const FuzzOp& other) const;
};

struct FuzzWorkload {
  uint64_t run_seed = 0;   // seed of the run executing this workload
  int workload_size = 1;   // base workload size handed to NewRun
  std::vector<FuzzOp> ops;  // canonically sorted (see Canonicalize)

  // Sorts ops into the canonical order serialization relies on.
  void Canonicalize();

  // Wire format:
  //   seed <run_seed>
  //   size <workload_size>
  //   ops <count>
  //   op <time_ms> <op_index> <target_ordinal> <magnitude>   (count lines)
  std::string Serialize() const;

  // Strict parse of Serialize output; throws std::runtime_error on any
  // structural anomaly (missing header, bad op count, trailing garbage).
  static FuzzWorkload Parse(const std::string& text);

  // FNV-1a 64 over the serialized form.
  uint64_t Hash() const;

  bool operator==(const FuzzWorkload& other) const {
    return run_seed == other.run_seed && workload_size == other.workload_size &&
           ops == other.ops;
  }
};

// FNV-1a 64 over a byte string (the hash the corpus checksums use).
uint64_t FnvHash(const std::string& bytes);

}  // namespace ctfuzz

#endif  // SRC_FUZZ_WORKLOAD_H_
