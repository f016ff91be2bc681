// Online log analysis endpoints (§3.2.1, Fig. 6).
//
// During fault-injection testing a LogstashAgent on every node watches that
// node's log stream, extracts runtime values of meta-info variables using
// filters derived by the offline analysis, and forwards them to the
// CustomStash on the control node. The stash keeps exactly the two structures
// of Fig. 6: a HashSet of node values and a HashMap from every other
// meta-info value to its associated node. The Trigger queries the stash to
// decide which node to crash when a crash point is hit.
#ifndef SRC_LOGGING_STASH_H_
#define SRC_LOGGING_STASH_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/logging/log_store.h"

namespace ctlog {

// Filter configuration produced by offline analysis. `hosts` comes from the
// cluster configuration file; `metainfo_args[stmt] = arg indices` is the
// offline-derived extractor (the paper compiles the same knowledge into
// per-type toString regexes; statement-relative indices are the equivalent
// for our structured log stream).
struct OnlineFilter {
  std::set<std::string> hosts;
  std::map<int, std::vector<int>> metainfo_args;

  // True if `value` looks like a node id: "host:port" with a configured host,
  // or a bare configured host.
  bool IsNodeValue(const std::string& value) const;
};

class CustomStash {
 public:
  explicit CustomStash(OnlineFilter filter) : filter_(std::move(filter)) {}

  // Processes the meta-info values extracted from one log instance, in FIFO
  // order: node values enter the HashSet; other values are associated to the
  // node any co-occurring value already resolves to. Values that resolve to
  // no node are discarded (§3.2.1).
  void Process(const std::vector<std::string>& values);

  // Resolves a runtime meta-info value to its node, if known. A node value
  // resolves to itself.
  std::optional<std::string> Lookup(const std::string& value) const;

  const std::set<std::string>& nodes() const { return nodes_; }
  const std::map<std::string, std::string>& value_to_node() const { return value_to_node_; }
  const OnlineFilter& filter() const { return filter_; }

 private:
  OnlineFilter filter_;
  std::set<std::string> nodes_;                       // Fig. 6 HashSet
  std::map<std::string, std::string> value_to_node_;  // Fig. 6 HashMap
};

// Per-node agent: subscribes to the cluster LogStore, filters instances from
// its node, and ships extracted meta-info values to the stash. One agent per
// node mirrors the paper's deployment; the shared LogStore plays the role of
// the per-node log files.
class LogstashAgent {
 public:
  LogstashAgent(std::string node, CustomStash* stash) : node_(std::move(node)), stash_(stash) {}

  // Called for every log instance in the store; ignores other nodes' lines.
  void OnInstance(const Instance& instance);

 private:
  std::string node_;
  CustomStash* stash_;
};

}  // namespace ctlog

#endif  // SRC_LOGGING_STASH_H_
