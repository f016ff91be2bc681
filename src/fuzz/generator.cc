#include "src/fuzz/generator.h"

#include <algorithm>

namespace ctfuzz {

OpSequenceGenerator::OpSequenceGenerator(const ctmodel::ProgramModel* model) : model_(model) {
  for (const ctmodel::GrammarOpDecl& op : model_->grammar_ops()) {
    total_weight_ += op.weight > 0 ? op.weight : 0;
  }
}

int OpSequenceGenerator::DrawOpIndex(ctcommon::Rng& rng) const {
  const auto& ops = model_->grammar_ops();
  int ticket = static_cast<int>(rng.Uniform(1, static_cast<uint64_t>(total_weight_)));
  for (size_t i = 0; i < ops.size(); ++i) {
    const int weight = ops[i].weight > 0 ? ops[i].weight : 0;
    if (ticket <= weight) {
      return static_cast<int>(i);
    }
    ticket -= weight;
  }
  return static_cast<int>(ops.size()) - 1;  // unreachable with sane weights
}

FuzzOp OpSequenceGenerator::DrawOp(ctcommon::Rng& rng) const {
  FuzzOp op;
  op.op_index = DrawOpIndex(rng);
  const ctmodel::GrammarOpDecl& decl = model_->grammar_ops()[op.op_index];
  op.time_ms = rng.Uniform(decl.min_time_ms, decl.max_time_ms);
  op.target_ordinal = static_cast<uint32_t>(rng.Uniform(0, 7));
  op.magnitude = static_cast<uint32_t>(
      rng.Uniform(1, static_cast<uint64_t>(std::max(1, decl.max_magnitude))));
  return op;
}

FuzzWorkload OpSequenceGenerator::Generate(ctcommon::Rng& rng, int workload_size) const {
  FuzzWorkload workload;
  workload.workload_size = workload_size;
  const int count = static_cast<int>(rng.Uniform(1, 4));
  for (int i = 0; i < count; ++i) {
    workload.ops.push_back(DrawOp(rng));
  }
  workload.Canonicalize();
  return workload;
}

FuzzWorkload OpSequenceGenerator::Mutate(const FuzzWorkload& parent, ctcommon::Rng& rng) const {
  FuzzWorkload child = parent;
  // add / drop / retime / retarget one op; single-op parents never shrink to
  // an empty sequence (a fresh Generate covers that shape already).
  const int strategy = static_cast<int>(rng.Uniform(0, 3));
  if (strategy == 0 || child.ops.empty()) {
    child.ops.push_back(DrawOp(rng));
  } else if (strategy == 1 && child.ops.size() > 1) {
    child.ops.erase(child.ops.begin() + static_cast<long>(rng.Index(child.ops.size())));
  } else if (strategy == 2) {
    FuzzOp& op = child.ops[rng.Index(child.ops.size())];
    const ctmodel::GrammarOpDecl& decl = model_->grammar_ops()[op.op_index];
    op.time_ms = rng.Uniform(decl.min_time_ms, decl.max_time_ms);
  } else {
    FuzzOp& op = child.ops[rng.Index(child.ops.size())];
    op.target_ordinal = static_cast<uint32_t>(rng.Uniform(0, 7));
    const ctmodel::GrammarOpDecl& decl = model_->grammar_ops()[op.op_index];
    op.magnitude = static_cast<uint32_t>(
        rng.Uniform(1, static_cast<uint64_t>(std::max(1, decl.max_magnitude))));
  }
  child.Canonicalize();
  return child;
}

}  // namespace ctfuzz
