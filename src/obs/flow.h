// Causal message flows: which delivery caused which.
//
// The cluster stamps every posted message with the currently-dispatching
// flow id (the delivery being handled, 0 for a root send from a timer or
// node start). At delivery time it allocates the next flow id and reports
// the edge here.
// Flow ids are assigned in delivery order by the deterministic event loop,
// so the recorded DAG — like every other deterministic observation — is
// byte-identical at any --jobs count.
//
// Raw records are capped per run (kMaxRecords); the aggregate counters keep
// counting past the cap so campaign-level statistics stay exact while the
// per-run memory stays bounded at scale. Past the cap a delivery is only
// counted (CountDropped), so no FlowRecord is built for it.
#ifndef SRC_OBS_FLOW_H_
#define SRC_OBS_FLOW_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace ctobs {

// One delivered message. `parent` is the flow id of the delivery whose
// handler posted this message (0 = root: a timer tick, node start, or the
// workload driver).
struct FlowRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string method;
  uint64_t sim_ms = 0;

  bool is_root() const { return parent == 0; }
};

class FlowRecorder {
 public:
  static constexpr size_t kMaxRecords = 4096;

  // True once the run holds kMaxRecords records: every later delivery is
  // dropped, and its caller can count it with CountDropped instead.
  bool full() const { return records_.size() >= kMaxRecords; }

  // Counts one delivery and keeps its record, or drops it once full().
  void Record(FlowRecord record) {
    if (full()) {
      CountDropped(record.parent, record.method);
      return;
    }
    Count(record.parent, record.method);
    records_.push_back(std::move(record));
  }

  // What Record does with a delivery once full(), without the FlowRecord.
  void CountDropped(uint64_t parent, const std::string& method) {
    CT_CHECK(full());
    Count(parent, method);
    ++dropped_;
  }

  const std::vector<FlowRecord>& records() const { return records_; }
  uint64_t messages() const { return messages_; }
  uint64_t roots() const { return roots_; }
  uint64_t max_depth() const { return max_depth_; }
  uint64_t dropped() const { return dropped_; }
  const std::map<std::string, uint64_t>& per_method() const { return per_method_; }

  // Depth of a delivered flow id (roots are depth 1); 0 for unknown ids.
  uint64_t DepthOf(uint64_t id) const {
    if (id == 0 || id > depth_by_id_.size()) {
      return 0;
    }
    return depth_by_id_[id - 1];
  }

  bool empty() const { return messages_ == 0; }

 private:
  void Count(uint64_t parent, const std::string& method) {
    ++messages_;
    if (parent == 0) {
      ++roots_;
    }
    // Flow ids are allocated sequentially from 1 and a parent is always
    // delivered before its children, so depth is a single lookup.
    uint32_t depth = 1;
    if (parent != 0 && parent <= depth_by_id_.size()) {
      depth = depth_by_id_[parent - 1] + 1;
    }
    depth_by_id_.push_back(depth);
    max_depth_ = std::max<uint64_t>(max_depth_, depth);
    ++per_method_[method];
  }

  std::vector<FlowRecord> records_;
  std::vector<uint32_t> depth_by_id_;
  std::map<std::string, uint64_t> per_method_;
  uint64_t messages_ = 0;
  uint64_t roots_ = 0;
  uint64_t max_depth_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace ctobs

#endif  // SRC_OBS_FLOW_H_
