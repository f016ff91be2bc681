#include "src/sim/failure_detector.h"

#include <algorithm>

#include "src/sim/cluster.h"

namespace ctsim {

void FailureDetector::Start() {
  owner_->Every(check_period_ms_, [this] { Sweep(); });
}

NodeId FailureDetector::Lookup(const std::string& node_id) const {
  // Non-creating: a never-interned id cannot be tracked.
  return owner_->cluster().interner().Find(node_id);
}

void FailureDetector::Heartbeat(NodeId node_id) {
  if (node_id.id() >= last_heartbeat_.size()) {
    last_heartbeat_.resize(node_id.id() + 1);
  }
  last_heartbeat_[node_id.id()] = Entry{node_id, owner_->cluster().loop().Now(), true};
}

void FailureDetector::Heartbeat(const std::string& node_id) {
  Heartbeat(owner_->cluster().Intern(node_id));
}

void FailureDetector::Forget(NodeId node_id) {
  if (IsTracked(node_id)) {
    last_heartbeat_[node_id.id()].tracked = false;
  }
}

void FailureDetector::Forget(const std::string& node_id) { Forget(Lookup(node_id)); }

void FailureDetector::NotifyLeft(NodeId node_id) {
  if (IsTracked(node_id)) {
    last_heartbeat_[node_id.id()].tracked = false;
    on_lost_(node_id);
  }
}

void FailureDetector::NotifyLeft(const std::string& node_id) { NotifyLeft(Lookup(node_id)); }

bool FailureDetector::IsTracked(NodeId node_id) const {
  return node_id.id() < last_heartbeat_.size() && last_heartbeat_[node_id.id()].tracked;
}

bool FailureDetector::IsTracked(const std::string& node_id) const {
  return IsTracked(Lookup(node_id));
}

std::vector<std::string> FailureDetector::tracked() const {
  std::vector<std::string> out;
  for (const Entry& entry : last_heartbeat_) {
    if (entry.tracked) {
      out.push_back(entry.id.str());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FailureDetector::Sweep() {
  Time now = owner_->cluster().loop().Now();
  std::vector<NodeId> lost;
  for (const Entry& entry : last_heartbeat_) {
    if (entry.tracked && now - entry.last > timeout_ms_) {
      lost.push_back(entry.id);
    }
  }
  // Declare losses in string order — the iteration order of the ordered map
  // this detector used to keep, so recovery callbacks fire identically.
  std::sort(lost.begin(), lost.end());
  for (const NodeId id : lost) {
    last_heartbeat_[id.id()].tracked = false;
    on_lost_(id);
  }
}

}  // namespace ctsim
