// Causal message flows: which delivery caused which.
//
// While a recorder is set on the cluster, every posted message is stamped
// with the flow id of the delivery being handled (0 for a root send from a
// timer, node start or the workload driver), and every delivery is recorded
// here, which allocates the next flow id. Flow ids are assigned in delivery
// order by the deterministic event loop, so the recorded DAG — like every
// other deterministic observation — is byte-identical at any --jobs count.
//
// A delivery costs integer work only: its depth is pushed, a root is
// counted, and its method is counted by symbol id. Each distinct method name
// is copied once per run into the recorder's name table. Raw records are
// capped per run (kMaxRecords); the counters keep counting past the cap, so
// campaign-level statistics stay exact while per-run memory stays bounded
// at scale.
#ifndef SRC_SIM_FLOW_H_
#define SRC_SIM_FLOW_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/symbol.h"

namespace ctsim {

// One kept delivery. `parent` is the flow id of the delivery whose handler
// posted this message (0 = root); `method` indexes the recorder's name table
// (FlowRecorder::method_name).
struct FlowRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t method = 0;
  uint64_t sim_ms = 0;
};

// Method symbols passed to one recorder must come from one intern table, the
// run's cluster's.
class FlowRecorder {
 public:
  static constexpr size_t kMaxRecords = 4096;

  // Records one delivery of `method` at virtual ms `sim_ms`, caused by the
  // delivery `parent` (0 = root), and returns its flow id.
  uint64_t Record(uint64_t parent, Symbol method, uint64_t sim_ms) {
    // Flow ids are allocated sequentially from 1 and a parent is always
    // delivered before its children, so depth is a single lookup.
    uint32_t depth = 1;
    if (parent == 0) {
      ++roots_;
    } else if (parent <= depth_by_id_.size()) {
      depth = depth_by_id_[parent - 1] + 1;
    }
    depth_by_id_.push_back(depth);
    max_depth_ = std::max(max_depth_, depth);
    const uint32_t name = NameOf(method);
    ++counts_[name];
    const uint64_t id = depth_by_id_.size();
    if (records_.size() < kMaxRecords) {
      records_.push_back({id, parent, name, sim_ms});
    }
    return id;
  }

  const std::vector<FlowRecord>& records() const { return records_; }
  const std::string& method_name(uint32_t name) const { return names_[name]; }
  uint64_t messages() const { return depth_by_id_.size(); }
  uint64_t roots() const { return roots_; }
  uint64_t max_depth() const { return max_depth_; }
  // Deliveries counted past the record cap.
  uint64_t dropped() const { return messages() - records_.size(); }
  std::map<std::string, uint64_t> per_method() const {
    std::map<std::string, uint64_t> out;
    for (size_t name = 0; name < names_.size(); ++name) {
      out[names_[name]] += counts_[name];
    }
    return out;
  }

  bool empty() const { return depth_by_id_.empty(); }

 private:
  static constexpr uint32_t kUnnamed = UINT32_MAX;

  // The name-table index of `method`, copying its text on first sight.
  uint32_t NameOf(Symbol method) {
    if (method.id() >= name_by_symbol_.size()) {
      name_by_symbol_.resize(method.id() + 1, kUnnamed);
    }
    uint32_t& name = name_by_symbol_[method.id()];
    if (name == kUnnamed) {
      name = static_cast<uint32_t>(names_.size());
      names_.push_back(method.str());
      counts_.push_back(0);
    }
    return name;
  }

  std::vector<FlowRecord> records_;
  std::vector<uint32_t> depth_by_id_;
  std::vector<uint32_t> name_by_symbol_;  // symbol id -> name index
  std::vector<std::string> names_;
  std::vector<uint64_t> counts_;  // deliveries per name index
  uint64_t roots_ = 0;
  uint32_t max_depth_ = 0;
};

}  // namespace ctsim

#endif  // SRC_SIM_FLOW_H_
