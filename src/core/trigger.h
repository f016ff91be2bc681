// Fault-injection testing phase (§3.2, Fig. 7).
//
// Each dynamic crash point gets its own run: the point is armed in the
// tracer; when it fires, the control-center callback has Logstash agents
// feed the meta-info values logged so far on every node into the
// CustomStash (stash_feed.h), queries the stash with the accessed runtime
// value to find the target node, and injects the fault —
//   pre-read:   graceful shutdown of the target followed by a wait window so
//               the recovery machinery runs before the read proceeds;
//   post-write: abrupt crash of the target; if the target is the node
//               executing the handler, the rest of the handler dies with it;
//   network:    (InjectionMode::kNetworkFault) instead of killing the target,
//               partition it from the cluster for the declared window and
//               heal — fault-on-appearance of a meta-info value.
// The oracle then classifies the run. Every run hashes its event trace into
// the result: re-executing the run and comparing hashes is the reproduction
// check. Multi-crash pair runs (multi_crash.h) chain a second trigger onto
// the first and reuse the same fault action.
#ifndef SRC_CORE_TRIGGER_H_
#define SRC_CORE_TRIGGER_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/crash_point_analysis.h"
#include "src/core/executor.h"
#include "src/core/multi_crash.h"
#include "src/core/profiler.h"
#include "src/core/system_under_test.h"
#include "src/logging/stash.h"
#include "src/runtime/tracer.h"

namespace ctobs {
class CampaignObserver;
}  // namespace ctobs

namespace ctcore {

// What the trigger does to the resolved target node.
enum class InjectionMode {
  kCrash,         // crash/shutdown per the point kind (the paper's trigger)
  kNetworkFault,  // transient partition + heal in the same meta-info window
};

struct InjectionResult {
  ctrt::DynamicPoint point;
  ctanalysis::CrashPointKind kind = ctanalysis::CrashPointKind::kPreRead;
  InjectionMode mode = InjectionMode::kCrash;
  std::string location;      // static point location, for triage
  std::string field_id;
  bool point_hit = false;    // the armed dynamic point executed
  bool injected = false;     // a target node was resolved and killed/cut off
  std::string target_node;
  std::string accessed_value;
  uint64_t trace_hash = 0;   // FNV-1a of the run's event trace
  RunOutcome outcome;
};

// An injection's name in phase tables, snapshots and dossiers: "inject:"
// plus the anchor frame of the armed access point, a declared method ctlint
// keeps reachable.
std::string InjectionName(const SystemUnderTest& system, int point_id);

class FaultInjectionTester {
 public:
  // Wait window after a pre-read shutdown (the paper defaults to 10 s).
  static constexpr ctsim::Time kPreReadWaitMs = 10'000;
  // Network-mode partition window for a point the model declares no
  // network-fault window for. It must outlast every system's failure
  // detector for the heal to race recovered state.
  static constexpr ctsim::Time kDefaultPartitionMs = 2500;

  // The unnamed parameter is the profile's fault-free duration, which
  // nothing reads; callers still pass it positionally.
  FaultInjectionTester(const SystemUnderTest* system,
                       const ctanalysis::CrashPointResult* crash_points,
                       ctlog::OnlineFilter filter, OracleBaseline baseline,
                       ctsim::Time /*normal_duration_ms*/,
                       ctsim::Time pre_read_wait_ms = kPreReadWaitMs)
      : system_(system),
        crash_points_(crash_points),
        filter_(std::move(filter)),
        baseline_(std::move(baseline)),
        pre_read_wait_ms_(pre_read_wait_ms) {}

  // Switches the trigger between crashing the resolved target (default) and
  // partitioning it. In network mode the partition window for a point is the
  // model's declared network-fault window, else kDefaultPartitionMs.
  void set_injection_mode(InjectionMode mode) { mode_ = mode; }

  // Campaign observability. When set, every campaign run (trace_slot >= 0)
  // is observed by its own RunObserver — the phase table, with the injection
  // named after its anchor frame, and the simulator counters — which is
  // absorbed into the observer under its injection slot after the run
  // retires. Observation is passive: it draws no random numbers and schedules
  // no events, so results, traces and hashes are bit-identical with or
  // without it.
  void set_observer(ctobs::CampaignObserver* observer) { observer_ = observer; }

  // Tests one dynamic crash point; `kind` comes from its static point. Safe
  // to call concurrently: each call owns its run (and the run its tracer).
  // `trace_slot` is the run's injection index, which keys its observer slot
  // (-1 when the call is outside a campaign).
  InjectionResult TestPoint(const ctrt::DynamicPoint& point, ctanalysis::CrashPointKind kind,
                            uint64_t seed, int trace_slot = -1);

  // Tests every dynamic crash point in `profile`, one run each, fanned across
  // `jobs` worker threads (see campaign.h). Seeds derive from the injection
  // index and results come back in index order, so the output is identical at
  // any thread count.
  std::vector<InjectionResult> TestAll(const ProfileResult& profile, uint64_t seed, int jobs = 1);

  // Tests one ordered pair: the second point is armed after the first fault
  // lands. Safe to call concurrently: each call owns its run and tracer.
  PairInjectionResult TestPair(const ctrt::DynamicPoint& first, const ctrt::DynamicPoint& second);

  // Walks the unordered pairs of the dynamic crash-point set (deterministic
  // order) up to `max_pairs` runs fanned across `jobs` worker threads
  // (campaign.h; aggregation is pair-index ordered, so the report is
  // identical at any thread count), comparing failing pairs against the
  // single-injection outcomes from `single_results`. A pair run is fixed by
  // its two points alone, so a pair runs the same simulation under any cap.
  MultiCrashReport TestPairs(const ProfileResult& profile,
                             const std::vector<InjectionResult>& single_results, int max_pairs,
                             int jobs = 1);

  // Total virtual time spent across TestPoint calls (Table 11 test column).
  ctsim::Time total_virtual_ms() const { return total_virtual_ms_.load(); }

 private:
  // The static crash point of an access point id; null when it has none.
  const ctanalysis::StaticCrashPoint* StaticPointOf(int point_id) const;

  // The trigger's fault action (§3.2.2, Fig. 7) on the already-resolved live
  // `target`: partition it (network mode), or shut it down and wait
  // (pre-read) or crash it (post-write). Unwinds the current handler with
  // NodeCrashedSignal when the target is the node executing it.
  void Strike(ctsim::Cluster& cluster, const std::string& target, int point_id,
              ctanalysis::CrashPointKind kind) const;

  const SystemUnderTest* system_;
  const ctanalysis::CrashPointResult* crash_points_;
  ctlog::OnlineFilter filter_;
  OracleBaseline baseline_;
  ctsim::Time pre_read_wait_ms_;
  InjectionMode mode_ = InjectionMode::kCrash;
  ctobs::CampaignObserver* observer_ = nullptr;
  // Atomic: concurrent TestPoint calls accumulate into it. Integer addition
  // commutes, so the total is thread-count independent.
  std::atomic<ctsim::Time> total_virtual_ms_{0};
};

}  // namespace ctcore

#endif  // SRC_CORE_TRIGGER_H_
