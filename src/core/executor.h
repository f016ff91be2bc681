// Drives one workload run to an oracle verdict.
//
// The executor pumps the cluster's event loop until the job finishes, fails,
// or blows through its deadlines, then classifies the outcome the way §3.2.2
// does: job failure, system hang, uncommon exceptions — plus the §4.1.3
// "timeout issue" category for jobs that do finish but take longer than
// 4x the fault-free runtime.
#ifndef SRC_CORE_EXECUTOR_H_
#define SRC_CORE_EXECUTOR_H_

#include <set>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/logging/log_store.h"

namespace ctobs {
class RunObserver;
}  // namespace ctobs

namespace ctcore {

// Exception types observed in fault-free runs; anything outside this set is
// "uncommon" (§3.2.2 case 3).
struct OracleBaseline {
  std::set<std::string> common_exception_types;
};

struct RunOutcome {
  bool finished = false;
  bool failed = false;         // the job itself reported failure
  bool hang = false;           // never finished within the hang deadline
  bool timeout_issue = false;  // finished, but later than the timeout threshold
  bool cluster_down = false;
  std::vector<std::string> uncommon_exceptions;  // "Type: message" strings
  ctsim::Time virtual_duration_ms = 0;

  // The paper's bug verdict: job failure, hang, or uncommon exceptions.
  bool IsBug() const { return failed || hang || cluster_down || !uncommon_exceptions.empty(); }

  // Short label for reports: "job failure", "cluster down", ...
  std::string PrimarySymptom() const;

  // The run's failure signature: the primary symptom, then ": " and the
  // first uncommon exception when there is one. No symptom label contains
  // ':', so distinct (symptom, exception) pairs get distinct signatures.
  std::string Signature() const;
};

class Executor {
 public:
  // Timeout threshold is 4 fault-free runtimes (§4.1.3); the hang deadline
  // gives slow-but-live runs room to finish so hangs and timeout issues can
  // be told apart.
  static constexpr int kTimeoutFactor = 4;
  static constexpr int kHangFactor = 12;

  // Runs to completion and classifies. `baseline` may be null during the
  // profiling phase (no uncommon-exception classification yet). An observed
  // run passes its `observer`: the run's flows, workload and recovery-check
  // phases and end-of-run simulator counters land in it.
  static RunOutcome Execute(WorkloadRun& run, const OracleBaseline* baseline,
                            ctobs::RunObserver* observer = nullptr);

  // Extracts the exception types+messages logged at the dispatch boundary.
  static std::vector<std::pair<std::string, std::string>> ExceptionsIn(
      const ctlog::LogStore& logs);

  // Builds the common-exception whitelist from a fault-free run's logs.
  static void AccumulateBaseline(const ctlog::LogStore& logs, OracleBaseline* baseline);
};

}  // namespace ctcore

#endif  // SRC_CORE_EXECUTOR_H_
