// Campaign metrics snapshot: the exportable form of a campaign's metrics.
//
// The snapshot is split along the determinism boundary. Everything derived
// from simulator events — counters, gauges, sim-time histograms, flow
// statistics, run counts — is identical at any --jobs count and serializes
// into the deterministic section; wall-clock data (per-phase wall seconds,
// campaign wall time, worker count) lives in a per-system "wall" object that
// ToJson(include_wall=false) omits entirely. campaign_test diffs the
// deterministic serialization across thread counts byte-for-byte.
#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace ctobs {

// The tag ctstat checks.
inline constexpr const char* kSnapshotSchema = "crashtuner-metrics-v4";

// Campaign-merged causal-flow statistics (deterministic).
struct FlowStats {
  uint64_t messages = 0;       // delivered messages observed
  uint64_t roots = 0;          // deliveries with no causal parent
  uint64_t max_depth = 0;      // longest causal chain (roots are depth 1)
  uint64_t records_dropped = 0;  // raw records past the per-run cap
  std::map<std::string, uint64_t> per_method;  // deliveries per RPC method
};

struct SystemMetrics {
  std::string system;
  int runs = 0;           // absorbed injection runs (deterministic)
  MetricsShard metrics;   // deterministic counters/gauges/histograms
  FlowStats flows;        // deterministic

  // Wall-clock sidecar (excluded from the deterministic section).
  int jobs = 1;
  double campaign_wall_seconds = 0;
  std::map<std::string, double> phase_wall_seconds;   // run phases, summed
  std::map<std::string, double> driver_wall_seconds;  // driver phases
};

struct MetricsSnapshot {
  std::vector<SystemMetrics> systems;

  // include_wall=false yields the deterministic section only.
  std::string ToJson(bool include_wall = true) const;
};

}  // namespace ctobs

#endif  // SRC_OBS_SNAPSHOT_H_
