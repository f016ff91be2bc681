// Per-run and per-campaign observation state.
//
// A RunObserver is owned by the run's RunContext, exactly like the tracer:
// one metrics shard (component dwell marks included), the run's phase and
// injection spans with the open-span stack that gives them parent ids, and
// one flow recorder, born disabled so profiling and baseline runs pay
// nothing. The campaign tester enables it for observed injection runs and,
// after the run retires, absorbs it into the CampaignObserver, which folds
// the shard into the campaign's on arrival. Every fold commutes, so the
// deterministic half of the resulting snapshot is byte-identical at any
// --jobs count.
#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/dossier.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/flow.h"

namespace ctobs {

class ChromeTraceWriter;
struct SystemMetrics;

class RunObserver {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  MetricsShard& metrics() { return metrics_; }
  const MetricsShard& metrics() const { return metrics_; }
  std::vector<SpanEvent>& spans() { return spans_; }
  const std::vector<SpanEvent>& spans() const { return spans_; }
  ctsim::FlowRecorder& flows() { return flows_; }
  const ctsim::FlowRecorder& flows() const { return flows_; }

  // Span hierarchy, called by ScopedSpan. BeginSpan assigns the next span id
  // and the enclosing open span as parent and pushes the open-span stack;
  // EndSpan pops it and appends the event. A run opens at most five spans.
  void BeginSpan(SpanEvent* event);
  void EndSpan(SpanEvent event);

  // A dwell mark (ctrt::MarkComponent): charges the virtual time since the
  // run's previous mark (or its start) to `component` and counts one event.
  // Every millisecond of clock advance is charged to the next mark, so the
  // dwell totals partition the run's virtual time deterministically.
  void MarkComponent(uint64_t now_ms, std::string_view component, std::string_view role) {
    metrics_.AddDwell(component, role, now_ms - last_mark_ms_);
    last_mark_ms_ = now_ms;
  }

 private:
  bool enabled_ = false;
  MetricsShard metrics_;
  std::vector<SpanEvent> spans_;
  ctsim::FlowRecorder flows_;
  uint64_t next_span_id_ = 0;
  uint64_t last_mark_ms_ = 0;
  std::vector<uint64_t> open_spans_;  // ids, innermost last
};

// Collects one campaign's observation: the merged metrics shard, per-slot
// spans and flows, failure dossiers, plus the driver's own wall-clock phase
// spans (analysis, profile, campaign). AbsorbRun/AbsorbDossier are
// thread-safe; everything else is called from the driver thread before or
// after the campaign fan-out.
class CampaignObserver {
 public:
  CampaignObserver() { driver_observer_.Enable(); }

  // Folds the run's shard into the campaign's, counts the run, and keeps its
  // spans and flows under `slot` (the injection index) for the phase
  // histograms and the Chrome trace. A run that retires passes its observer
  // by move, so its recorded spans and flows are not copied.
  void AbsorbRun(int slot, RunObserver run);

  // Stores a failing run's dossier under its slot.
  void AbsorbDossier(int slot, Dossier dossier);

  // Dossiers in ascending slot order (deterministic at any --jobs).
  std::vector<Dossier> dossiers() const;

  // Driver-level observer for wall-only phase spans; always enabled.
  RunObserver& driver_observer() { return driver_observer_; }

  void set_system(std::string system) { system_ = std::move(system); }
  void set_jobs(int jobs) { jobs_ = jobs; }
  void set_campaign_wall_seconds(double seconds) { campaign_wall_seconds_ = seconds; }

  const std::string& system() const { return system_; }

  // Everything absorbed: the merged counters, gauges, histograms and
  // component dwell, per-phase sim-time histograms derived from the spans
  // (walked in slot order), the merged flow statistics, plus the wall-clock
  // sidecar fields.
  SystemMetrics Finalize() const;

  // Emits this campaign as one Chrome-trace process: one thread per run
  // slot on the virtual-time axis (with Perfetto flow arrows linking each
  // delivered message to the delivery that caused it), plus a driver thread
  // on the wall axis.
  void AppendChromeTrace(ChromeTraceWriter* writer, int pid,
                         const std::string& process_name) const;

 private:
  mutable std::mutex mu_;
  MetricsShard metrics_;
  int runs_ = 0;
  std::map<int, std::vector<SpanEvent>> spans_by_slot_;
  std::map<int, ctsim::FlowRecorder> flows_by_slot_;
  std::map<int, Dossier> dossiers_by_slot_;
  RunObserver driver_observer_;
  std::string system_;
  int jobs_ = 1;
  double campaign_wall_seconds_ = 0;
};

}  // namespace ctobs

#endif  // SRC_OBS_OBSERVER_H_
