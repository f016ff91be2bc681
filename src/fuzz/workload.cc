#include "src/fuzz/workload.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/common/fnv.h"

namespace ctfuzz {

namespace {

// Reads one "<tag> <value>" line; throws naming the expected tag.
uint64_t ReadTagged(std::istringstream& in, const std::string& tag) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("fuzz workload: truncated before '" + tag + "' line");
  }
  std::istringstream fields(line);
  std::string got;
  uint64_t value = 0;
  if (!(fields >> got >> value) || got != tag) {
    throw std::runtime_error("fuzz workload: expected '" + tag + " <n>', got '" + line + "'");
  }
  std::string extra;
  if (fields >> extra) {
    throw std::runtime_error("fuzz workload: trailing fields on '" + tag + "' line");
  }
  return value;
}

}  // namespace

uint64_t FnvHash(const std::string& bytes) {
  ctcommon::Fnv1a hash;
  hash.Add(bytes);
  return hash.value();
}

bool FuzzOp::operator<(const FuzzOp& other) const {
  if (time_ms != other.time_ms) {
    return time_ms < other.time_ms;
  }
  if (op_index != other.op_index) {
    return op_index < other.op_index;
  }
  if (target_ordinal != other.target_ordinal) {
    return target_ordinal < other.target_ordinal;
  }
  return magnitude < other.magnitude;
}

void FuzzWorkload::Canonicalize() { std::sort(ops.begin(), ops.end()); }

std::string FuzzWorkload::Serialize() const {
  std::ostringstream out;
  out << "seed " << run_seed << "\n";
  out << "size " << workload_size << "\n";
  out << "ops " << ops.size() << "\n";
  for (const FuzzOp& op : ops) {
    out << "op " << op.time_ms << " " << op.op_index << " " << op.target_ordinal << " "
        << op.magnitude << "\n";
  }
  return out.str();
}

FuzzWorkload FuzzWorkload::Parse(const std::string& text) {
  std::istringstream in(text);
  FuzzWorkload workload;
  workload.run_seed = ReadTagged(in, "seed");
  workload.workload_size = static_cast<int>(ReadTagged(in, "size"));
  const uint64_t count = ReadTagged(in, "ops");
  for (uint64_t i = 0; i < count; ++i) {
    std::string line;
    if (!std::getline(in, line)) {
      throw std::runtime_error("fuzz workload: truncated op list (" + std::to_string(i) + "/" +
                               std::to_string(count) + " ops)");
    }
    std::istringstream fields(line);
    std::string tag;
    FuzzOp op;
    if (!(fields >> tag >> op.time_ms >> op.op_index >> op.target_ordinal >> op.magnitude) ||
        tag != "op") {
      throw std::runtime_error("fuzz workload: malformed op line '" + line + "'");
    }
    std::string extra;
    if (fields >> extra) {
      throw std::runtime_error("fuzz workload: trailing fields on op line '" + line + "'");
    }
    workload.ops.push_back(op);
  }
  std::string trailing;
  if (std::getline(in, trailing) && !trailing.empty()) {
    throw std::runtime_error("fuzz workload: trailing garbage '" + trailing + "'");
  }
  return workload;
}

uint64_t FuzzWorkload::Hash() const { return FnvHash(Serialize()); }

}  // namespace ctfuzz
