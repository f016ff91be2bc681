#include "src/logging/stash.h"

#include "src/common/strings.h"

namespace ctlog {

bool OnlineFilter::IsNodeValue(const std::string& value) const {
  if (hosts.count(value) > 0) {
    return true;
  }
  size_t colon = value.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  std::string host = value.substr(0, colon);
  std::string port = value.substr(colon + 1);
  if (port.empty() || hosts.count(host) == 0) {
    return false;
  }
  for (char c : port) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  return true;
}

void CustomStash::Process(const std::vector<std::string>& values) {
  // Pass 1: node values join the HashSet.
  for (const auto& value : values) {
    if (filter_.IsNodeValue(value)) {
      nodes_.insert(value);
    }
  }
  // Pass 2: find the anchor node for this instance. A node value in the
  // instance wins over an earlier association, so when a recovered component
  // re-registers on a different node ("attempt_2 registered on node2") its
  // values are re-anchored to the new node.
  std::optional<std::string> anchor;
  for (const auto& value : values) {
    if (filter_.IsNodeValue(value)) {
      anchor = value;
      break;
    }
  }
  if (!anchor.has_value()) {
    for (const auto& value : values) {
      auto node = Lookup(value);
      if (node.has_value()) {
        anchor = node;
        break;
      }
    }
  }
  if (!anchor.has_value()) {
    return;  // Unassociated values are discarded.
  }
  // Pass 3: associate (or re-associate) the remaining values with the anchor.
  for (const auto& value : values) {
    if (filter_.IsNodeValue(value) || value.empty()) {
      continue;
    }
    value_to_node_[value] = *anchor;
  }
}

std::optional<std::string> CustomStash::Lookup(const std::string& value) const {
  // A value shaped like a configured node id resolves to itself; other
  // values need a log-derived association.
  if (nodes_.count(value) > 0 || filter_.IsNodeValue(value)) {
    return value;
  }
  auto it = value_to_node_.find(value);
  if (it != value_to_node_.end()) {
    return it->second;
  }
  return std::nullopt;
}

void LogstashAgent::OnInstance(const Instance& instance) {
  if (instance.node != node_) {
    return;
  }
  const OnlineFilter& filter = stash_->filter();
  auto it = filter.metainfo_args.find(instance.statement_id);
  if (it == filter.metainfo_args.end()) {
    return;  // Nothing in this statement was classified as meta-info offline.
  }
  std::vector<std::string> values;
  for (int index : it->second) {
    if (index >= 0 && index < static_cast<int>(instance.args.size())) {
      values.push_back(instance.args[index]);
    }
  }
  if (values.empty()) {
    return;
  }
  stash_->Process(values);
}

}  // namespace ctlog
