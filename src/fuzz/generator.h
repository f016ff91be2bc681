// Seeded op-sequence generation over a system's declared grammar.
//
// The generator is stateless: every draw comes from the caller's Rng, which
// the fuzz phase seeds from a dedicated `seed ^ fuzz` stream mixed with the
// run's index, so the same (seed, index) always produces the same workload
// regardless of thread count.
#ifndef SRC_FUZZ_GENERATOR_H_
#define SRC_FUZZ_GENERATOR_H_

#include "src/common/rng.h"
#include "src/fuzz/workload.h"
#include "src/model/program_model.h"

namespace ctfuzz {

class OpSequenceGenerator {
 public:
  explicit OpSequenceGenerator(const ctmodel::ProgramModel* model);

  // True if the model declares at least one grammar op.
  bool HasGrammar() const { return total_weight_ > 0; }

  // Fresh workload: 1-4 weighted ops, each timed inside its declared window.
  FuzzWorkload Generate(ctcommon::Rng& rng, int workload_size) const;

  // Add / drop / retime / retarget one op of the parent. The fuzz phase never
  // mutates (each of its runs is a fresh Generate draw); perfbench's
  // fuzz.gen_us probe still times this call.
  FuzzWorkload Mutate(const FuzzWorkload& parent, ctcommon::Rng& rng) const;

 private:
  int DrawOpIndex(ctcommon::Rng& rng) const;
  FuzzOp DrawOp(ctcommon::Rng& rng) const;

  const ctmodel::ProgramModel* model_;
  int total_weight_ = 0;
};

}  // namespace ctfuzz

#endif  // SRC_FUZZ_GENERATOR_H_
