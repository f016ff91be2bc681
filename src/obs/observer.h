// Per-run and per-campaign observation state.
//
// A RunObserver exists only for an observed run: one metrics shard, the run's
// phase table and one flow recorder. The campaign tester makes one for each
// observed injection run, hands it to Executor::Execute and, after the run
// retires, absorbs it into the CampaignObserver, which folds the shard into
// the campaign's on arrival. Profiling and baseline runs have none, so they
// pay nothing. Every fold commutes, so the deterministic half of the resulting
// snapshot is byte-identical at any --jobs count.
#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/dossier.h"
#include "src/obs/metrics.h"
#include "src/sim/flow.h"

namespace ctsim {
class EventLoop;
}  // namespace ctsim

namespace ctobs {

class ChromeTraceWriter;
struct SystemMetrics;

// The fixed phases of an observed run. A run stamps each at most once, and
// a run whose fault never lands stamps no injection. Workload (cluster
// start-up included) and recovery-check split the run with no gap; the
// injection nests inside one of them.
enum class Phase { kWorkload, kInjection, kRecoveryCheck };
inline constexpr size_t kNumPhases = 3;

// "workload", "injection", "recovery-check".
std::string_view PhaseName(Phase phase);

// One phase's extent on both clocks: virtual ms read off the run's event
// loop (deterministic) and steady_clock ns (meaningful only as differences
// within one process; never hashed, never in deterministic output).
struct PhaseStamp {
  bool recorded = false;
  uint64_t sim_begin_ms = 0;
  uint64_t sim_end_ms = 0;
  uint64_t wall_begin_ns = 0;
  uint64_t wall_end_ns = 0;

  uint64_t sim_ms() const { return sim_end_ms - sim_begin_ms; }
  double wall_seconds() const {
    return static_cast<double>(wall_end_ns - wall_begin_ns) / 1e9;
  }
};

// One run's phase table. The injection stamp also names the fault: the
// armed point's anchor frame as "inject:<frame>", the point id and the
// target node.
struct PhaseTable {
  std::array<PhaseStamp, kNumPhases> stamps;
  std::string injection_name;
  int injection_point = -1;
  std::string injection_target;

  PhaseStamp& operator[](Phase phase) { return stamps[static_cast<size_t>(phase)]; }
  const PhaseStamp& operator[](Phase phase) const { return stamps[static_cast<size_t>(phase)]; }
};

class RunObserver {
 public:
  MetricsShard& metrics() { return metrics_; }
  const MetricsShard& metrics() const { return metrics_; }
  PhaseTable& phases() { return phases_; }
  const PhaseTable& phases() const { return phases_; }
  ctsim::FlowRecorder& flows() { return flows_; }
  const ctsim::FlowRecorder& flows() const { return flows_; }

 private:
  MetricsShard metrics_;
  PhaseTable phases_;
  ctsim::FlowRecorder flows_;
};

// Stamps one phase of a run: construction reads both clocks into the
// phase's begin, destruction into its end, so the phase stays correct when
// the body unwinds through NodeCrashedSignal. A null observer records nothing
// and reads no clock.
class ScopedPhase {
 public:
  ScopedPhase(RunObserver* observer, const ctsim::EventLoop& loop, Phase phase);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const ctsim::EventLoop& loop_;
  PhaseStamp* stamp_ = nullptr;  // null when recording is off
};

// Collects one campaign's observation: the merged metrics shard, per-slot
// phase tables and flows, the driver's own wall-clock phases (analysis,
// profile, campaign) and the campaign's failure dossiers. AbsorbRun is
// thread-safe; everything else is called from the driver thread before or
// after the campaign fan-out.
class CampaignObserver {
 public:
  using Clock = std::chrono::steady_clock;

  // Folds the run's shard into the campaign's, counts the run, and keeps its
  // phase table and flows under `slot` (the injection index) for the phase
  // histograms and the Chrome trace. A run that retires passes its observer
  // by move, so its recorded flows are not copied.
  void AbsorbRun(int slot, RunObserver run);

  // Records one driver phase between two clock reads the driver takes.
  void AddDriverPhase(std::string name, Clock::time_point begin, Clock::time_point end);

  // The campaign's failure dossiers, in ascending slot order.
  void set_dossiers(std::vector<Dossier> dossiers) { dossiers_ = std::move(dossiers); }
  const std::vector<Dossier>& dossiers() const { return dossiers_; }

  void set_system(std::string system) { system_ = std::move(system); }
  void set_jobs(int jobs) { jobs_ = jobs; }

  // Everything absorbed: the merged counters, gauges and histograms,
  // per-phase sim-time histograms from the phase tables
  // (walked in slot order), the merged flow statistics, plus the wall-clock
  // sidecar fields; the campaign's wall time is its `campaign` phase.
  SystemMetrics Finalize() const;

  // Emits this campaign as one Chrome-trace process: one thread per run
  // slot on the virtual-time axis (with Perfetto flow arrows linking each
  // delivered message to the delivery that caused it), plus a driver thread
  // on the wall axis.
  void AppendChromeTrace(ChromeTraceWriter* writer, int pid,
                         const std::string& process_name) const;

 private:
  struct DriverPhase {
    std::string name;
    Clock::time_point begin;
    Clock::time_point end;
  };

  mutable std::mutex mu_;
  MetricsShard metrics_;
  int runs_ = 0;
  std::map<int, PhaseTable> phases_by_slot_;
  std::map<int, ctsim::FlowRecorder> flows_by_slot_;
  std::vector<DriverPhase> driver_phases_;
  std::vector<Dossier> dossiers_;
  std::string system_;
  int jobs_ = 1;
};

}  // namespace ctobs

#endif  // SRC_OBS_OBSERVER_H_
