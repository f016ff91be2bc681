// End-to-end CrashTuner driver (Fig. 4).
//
// Phase 1 (locate crash points): run the workload once to collect logs →
// offline log analysis → type-based meta-info inference → static crash
// points → profiling for dynamic crash points.
// Phase 2 (test): one fault-injection run per dynamic crash point, online
// log analysis resolving accessed values to target nodes, oracle verdicts.
// The report carries everything Tables 5 and 10-12 need.
#ifndef SRC_CORE_CRASHTUNER_H_
#define SRC_CORE_CRASHTUNER_H_

#include <set>
#include <string>
#include <vector>

#include "src/analysis/context_enumeration.h"
#include "src/analysis/crash_point_analysis.h"
#include "src/analysis/log_analysis.h"
#include "src/analysis/metainfo_inference.h"
#include "src/core/profiler.h"
#include "src/core/system_under_test.h"
#include "src/core/trigger.h"

namespace ctobs {
class CampaignObserver;
}  // namespace ctobs

namespace ctcore {

// One detected bug after deduplication (several dynamic points can expose the
// same issue; the paper reports at issue granularity).
struct DetectedBug {
  std::string bug_id;  // triaged upstream id, or "NEW-<location>"
  std::string priority;
  std::string scenario;  // pre-read / post-write
  std::string status;
  std::string symptom;
  std::string metainfo;
  std::string location;
  std::vector<ctrt::DynamicPoint> exposing_points;
  RunOutcome sample_outcome;
};

// Summary of a workload-fuzzing phase (src/fuzz/fuzz_phase.h). Inactive
// (all zeros) unless the driver tool ran with --fuzz N, so default reports
// are unchanged byte-for-byte.
struct FuzzSummary {
  bool active = false;
  int runs = 0;               // fuzz runs executed
  int corpus_size = 0;        // runs that first reached a pair
  int baseline_pairs = 0;     // dynamic points of the fixed workload script
  int coverage_pairs = 0;     // baseline ∪ fuzz-discovered
  int new_pairs = 0;          // discovered beyond the fixed script
  int new_coverage_runs = 0;  // runs contributing >= 1 new pair
  int bug_runs = 0;           // fuzz runs with an oracle bug verdict
  // Distinct known bugs TriageBugs matched among the bug runs, in id order.
  // A fuzz run has no crash-point location, so an unmatched one names none.
  std::vector<std::string> bug_ids;
  // FNV mix of per-fuzz-run trace hashes in run-index order; equal hashes
  // mean schedule-identical fuzz campaigns (any --jobs level).
  uint64_t trace_hash = 0;
};

struct SystemReport {
  std::string system;

  // Table 10 columns.
  int total_types = 0;
  int total_fields = 0;
  int total_access_points = 0;
  int metainfo_types = 0;
  int metainfo_fields = 0;
  int metainfo_access_points = 0;
  int static_crash_points = 0;
  int dynamic_crash_points = 0;

  // Table 12 columns.
  int pruned_constructor = 0;
  int pruned_unused = 0;
  int pruned_sanity_checked = 0;

  // Table 11 columns: real wall time for the analyses and for the Phase-2
  // injection campaign (which parallelizes across DriverOptions::jobs),
  // virtual cluster time for profiling/testing (the simulator equivalent of
  // testbed hours).
  double analysis_wall_seconds = 0;
  double test_wall_seconds = 0;
  double profile_virtual_seconds = 0;
  double test_virtual_hours = 0;

  // Static context enumeration (kStaticOnly).
  int static_contexts = 0;            // enumerated ⟨point, context⟩ pairs in use
  int static_unreachable_points = 0;  // executable candidates with no reachable anchor
  int static_infeasible_points = 0;   // reachable anchors whose strings all pruned
  int static_pruned_call_strings = 0;  // individual strings removed by feasibility

  // Combined FNV-1a mix of the per-injection trace hashes, in injection
  // order: a fingerprint of every event the campaign scheduled. Two reports
  // with equal trace hashes ran schedule-identical campaigns.
  uint64_t trace_hash = 0;

  FuzzSummary fuzz;

  ctanalysis::LogAnalysisResult log_result;
  // Phase 2's online log filter, for testers that rerun injections against
  // this report. The report writers do not serialize it.
  ctlog::OnlineFilter filter;
  ctanalysis::MetaInfoResult metainfo;
  ctanalysis::CrashPointResult crash_points;
  ProfileResult profile;
  std::vector<InjectionResult> injections;
  std::vector<DetectedBug> bugs;            // oracle-failing, deduplicated
  std::vector<InjectionResult> timeout_issues;  // §4.1.3
};

// Where the driver's dynamic crash points come from (Definition 1 pairs).
//   kProfiled    workload-doubling profiling fixpoint (§3.1.3; the default)
//   kStaticOnly  bounded call-string enumeration over the declared call graph
//                replaces the profiled set; no instrumented run at all — the
//                Phase-1a log run provides the oracle baseline and the
//                fault-free duration
// kStaticOnly bounds call strings at the depth the run's tracers record
// (AccessTracer::DefaultStackDepth) and always applies the per-call-string
// feasibility prune: enumerated strings no workload entry can realize are
// dropped, not only whole points with unreachable anchors. To measure the
// enumeration's recall and precision, pass a profiled report's dynamic points
// to ctanalysis::CompareWithProfile.
enum class ContextMode { kProfiled, kStaticOnly };

struct DriverOptions {
  uint64_t seed = 2019;
  // Worker threads for the Phase-2 injection campaign. 1 runs sequentially;
  // 0 means one per hardware thread. Any value yields the same report
  // byte-for-byte (see campaign.h).
  int jobs = 1;
  ctanalysis::CrashPointOptions crash_point_options;
  ContextMode context_mode = ContextMode::kProfiled;
  // Pre-read trigger wait window (§3.2.2; the paper defaults to 10 s). The
  // window must outlast failure handling for the recovery to race the read.
  ctsim::Time pre_read_wait_ms = FaultInjectionTester::kPreReadWaitMs;
  // Manual annotations (§4.1.1): extra meta-info seeds for variables the
  // logs never print (the HBASE-13546 / YARN-4502 class of misses).
  std::set<std::string> annotated_seed_types;
  // What Phase 2 does at each armed point: crash/shutdown the resolved node
  // (the paper's trigger) or partition-and-heal it (network-fault mode,
  // targeting message races). Network mode takes each point's partition
  // window from the model's declared network-fault windows, falling back to
  // FaultInjectionTester::kDefaultPartitionMs.
  InjectionMode injection_mode = InjectionMode::kCrash;
  // Campaign observability (may be null). When set, every Phase-2 run
  // records its phase table and metrics into it, and at the end the driver
  // adds its own wall-clock phases (analysis, profile, campaign), the
  // system/jobs metadata and the report's failure dossiers (ReportDossiers).
  // Observation is passive: the report and its trace hash are byte-identical
  // either way.
  ctobs::CampaignObserver* observer = nullptr;
};

// Phase 2 seeds injection i with DriverOptions::seed + kCampaignSeedOffset + i.
inline constexpr uint64_t kCampaignSeedOffset = 1000;

class CrashTunerDriver {
 public:
  SystemReport Run(const SystemUnderTest& system,
                   const DriverOptions& options = DriverOptions()) const;
};

// Groups bug-verdict injections into DetectedBugs and triages them against
// the system's known-bug table: the one bug matcher, which the baselines'
// TriageBaselineBugs and the fuzz phase (src/fuzz/fuzz_phase.h) feed too. A
// run with no crash-point location is reported only when it matches a known
// bug.
std::vector<DetectedBug> TriageBugs(const SystemUnderTest& system,
                                    const std::vector<InjectionResult>& injections);

}  // namespace ctcore

#endif  // SRC_CORE_CRASHTUNER_H_
