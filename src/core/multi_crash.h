// Multi-crash extension (§6 future work; PREFAIL/FATE-style multi-failure
// injection layered on meta-info crash points).
//
// The paper scopes CrashTuner to single-crash bugs and points at [23, 33]
// for bugs that need several crash events. This extension chains a second
// injection onto the same run: the first dynamic crash point fires and kills
// its target as usual; the tracer is then re-armed at a second dynamic point
// and a second node dies when it is hit. Outcomes feed the same oracle. The
// pair runs live on FaultInjectionTester (TestPair/TestPairs, trigger.h), so
// both faults go through the same trigger action as a single injection; this
// file holds the pair walk and the result types.
//
// The pair space is quadratic, so the tester takes an explicit cap and walks
// pairs in a deterministic order; bench_multicrash reports what the deeper
// search buys on the mini systems.
//
// The pair candidates come from whatever dynamic point set the driver
// produced — profiled runs in ContextMode::kProfiled, *statically enumerated*
// contexts in kStaticOnly — through one shared enumerator
// (EnumerateCrashPairs), so the static mode builds its quadratic set with no
// profiling runs. An unordered pair {a, b} is statically enumerable iff both
// points are static points, so the pair sets of the two modes compare by
// their point sets alone: n points make n(n-1)/2 pairs.
#ifndef SRC_CORE_MULTI_CRASH_H_
#define SRC_CORE_MULTI_CRASH_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/runtime/tracer.h"

namespace ctcore {

// One ordered second-crash candidate: inject at `first`, then re-arm `second`.
struct CrashPairCandidate {
  ctrt::DynamicPoint first;
  ctrt::DynamicPoint second;

  bool operator<(const CrashPairCandidate& other) const {
    if (!(first == other.first)) {
      return first < other.first;
    }
    return second < other.second;
  }
  bool operator==(const CrashPairCandidate& other) const {
    return first == other.first && second == other.second;
  }
};

// Deterministic walk of the *unordered* pairs of a sorted dynamic point set
// (i < j), capped at `max_pairs` (negative = uncapped). The symmetric order
// (B,A) of an enumerated (A,B) is intentionally not produced: injection
// order is first-by-point-order, and counting both orders double-counted
// every candidate the precision metrics saw. Both the profiled and the
// static-only campaign draw their pair lists from here, so the two modes
// differ only in where the points came from.
std::vector<CrashPairCandidate> EnumerateCrashPairs(
    const std::set<ctrt::DynamicPoint>& points, long long max_pairs);

struct PairInjectionResult {
  ctrt::DynamicPoint first;
  ctrt::DynamicPoint second;
  std::string first_location;
  std::string second_location;
  bool first_injected = false;
  bool second_injected = false;
  std::string first_target;
  std::string second_target;
  RunOutcome outcome;
};

struct MultiCrashReport {
  int pairs_tested = 0;
  double virtual_hours = 0;
  std::vector<PairInjectionResult> failing;  // oracle-flagged pairs
  // Failing pairs whose failure does not reproduce under either single
  // injection alone — the candidates for genuine multi-crash bugs.
  std::vector<PairInjectionResult> multi_only;
};

}  // namespace ctcore

#endif  // SRC_CORE_MULTI_CRASH_H_
