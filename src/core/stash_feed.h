// Online log analysis for one injection run (§3.2.1): one Logstash agent per
// node feeds the run's meta-info values into the stash the trigger resolves
// targets from. Private to ctcore; the trigger builds one per run.
//
// The stash is fed on demand. CustomStash::Process reads only the content and
// order of the lines, so handing it, at each lookup, the lines logged since
// the previous lookup leaves it in the state a live subscription would have
// reached, and the lines after the run's last lookup, usually most of them,
// are never read.
#ifndef SRC_CORE_STASH_FEED_H_
#define SRC_CORE_STASH_FEED_H_

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/logging/stash.h"
#include "src/sim/cluster.h"

namespace ctcore {

class StashFeed {
 public:
  // Lines logged before the feed is built are never fed, and each line goes
  // to its own node's agent only: a node outside `cluster.node_ids()` at
  // this point has none.
  StashFeed(ctsim::Cluster& cluster, const ctlog::OnlineFilter& filter)
      : cluster_(cluster), stash_(filter), fed_(cluster.logs().instances().size()) {
    for (const auto& node_id : cluster.node_ids()) {
      agents_.emplace(node_id, ctlog::LogstashAgent(node_id, &stash_));
    }
  }
  StashFeed(const StashFeed&) = delete;
  StashFeed& operator=(const StashFeed&) = delete;

  // The live node an accessed value resolves to, after feeding the lines
  // logged since the last call. None when the value names no node (the
  // procedure simply returns, §3.2.2) or that node is already down.
  std::optional<std::string> LiveTarget(const std::string& value) {
    const auto& lines = cluster_.logs().instances();
    for (; fed_ < lines.size(); ++fed_) {
      auto agent = agents_.find(lines[fed_].node);
      if (agent != agents_.end()) {
        agent->second.OnInstance(lines[fed_]);
      }
    }
    std::optional<std::string> target = stash_.Lookup(value);
    if (target.has_value() && !cluster_.IsAlive(*target)) {
      return std::nullopt;
    }
    return target;
  }

 private:
  ctsim::Cluster& cluster_;
  ctlog::CustomStash stash_;
  std::unordered_map<std::string, ctlog::LogstashAgent> agents_;  // by node id
  size_t fed_;  // lines of the cluster's log already fed
};

}  // namespace ctcore

#endif  // SRC_CORE_STASH_FEED_H_
