// RPC-style message passed between simulated nodes.
//
// Identities (from/to/method) are interned symbols from the owning cluster's
// table, so routing and handler dispatch compare integers. The payload is a
// small inline vector of ⟨interned key, value⟩ pairs — messages carry at most
// a handful of fields, and the old per-message std::map cost a node
// allocation per field on the hottest path in the simulator.
#ifndef SRC_SIM_MESSAGE_H_
#define SRC_SIM_MESSAGE_H_

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/symbol.h"

namespace ctsim {

// Insertion-ordered flat map with inline storage for the common case.
class ArgVec {
 public:
  struct Entry {
    Symbol key;
    std::string value;
  };

  void Set(Symbol key, std::string value) {
    for (uint32_t i = 0; i < count_; ++i) {
      Entry& entry = At(i);
      if (entry.key == key) {
        entry.value = std::move(value);
        return;
      }
    }
    if (count_ < kInline) {
      inline_[count_] = Entry{key, std::move(value)};
    } else {
      spill_.push_back(Entry{key, std::move(value)});
    }
    ++count_;
  }

  const std::string& Find(Symbol key) const {
    for (uint32_t i = 0; i < count_; ++i) {
      const Entry& entry = At(i);
      if (entry.key == key) {
        return entry.value;
      }
    }
    return Empty();
  }

  // Text lookup for call sites that pass a plain string key.
  const std::string& Find(const std::string& key) const {
    for (uint32_t i = 0; i < count_; ++i) {
      const Entry& entry = At(i);
      if (entry.key.str() == key) {
        return entry.value;
      }
    }
    return Empty();
  }

  // Empties the map for reuse; the next Set overwrites stale inline entries.
  void Clear() {
    count_ = 0;
    spill_.clear();
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  static constexpr uint32_t kInline = 4;

  Entry& At(uint32_t i) { return i < kInline ? inline_[i] : spill_[i - kInline]; }
  const Entry& At(uint32_t i) const { return i < kInline ? inline_[i] : spill_[i - kInline]; }
  static const std::string& Empty() {
    static const std::string kEmpty;
    return kEmpty;
  }

  uint32_t count_ = 0;
  std::array<Entry, kInline> inline_;
  std::vector<Entry> spill_;
};

struct Message {
  Symbol from;
  Symbol to;
  Symbol method;  // RPC name, e.g. "commitPending"
  ArgVec args;    // named payload fields

  // Causal-flow stamp, written by the cluster at post time (zero unless a
  // flow recorder is set; never hashed or traced): the flow id of the
  // delivery whose handler posted this message (0 = root send from a timer,
  // node start, or the workload driver).
  uint64_t flow = 0;

  // Reads a payload field, or empty string if missing.
  const std::string& Arg(const std::string& key) const { return args.Find(key); }
  const std::string& Arg(Symbol key) const { return args.Find(key); }
};

}  // namespace ctsim

#endif  // SRC_SIM_MESSAGE_H_
