// Per-run and per-campaign observation state.
//
// A RunObserver is owned by the run's RunContext, exactly like the tracer:
// one metrics shard, one span recorder (with the open-span stack that gives
// spans their parent ids), and one flow recorder, born disabled so profiling
// and baseline runs pay nothing. The campaign tester enables it for observed
// injection runs and, after the run retires, absorbs it into the
// CampaignObserver under the run's injection slot. Aggregation walks slots
// in index order (MetricsRegistry::Aggregate), so the deterministic half of
// the resulting snapshot is byte-identical at any --jobs count.
#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/dossier.h"
#include "src/obs/flow.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ctobs {

class ChromeTraceWriter;
struct SystemMetrics;

// Per-run aggregate of one span-tree path ("workload/quorum-broadcast"):
// exact counts and virtual-time totals, never capped (unlike raw events).
struct SpanAggregate {
  std::string name;
  std::string component;
  uint64_t count = 0;
  uint64_t sim_ms = 0;
};

class RunObserver {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  MetricsShard& metrics() { return metrics_; }
  const MetricsShard& metrics() const { return metrics_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  FlowRecorder& flows() { return flows_; }
  const FlowRecorder& flows() const { return flows_; }

  // Span hierarchy, called by ScopedSpan. BeginSpan assigns the next span id
  // and the enclosing open span as parent and pushes the open-span stack;
  // EndSpan pops it, folds the span into the path-keyed aggregate tree, and
  // appends the raw event (subject to the recorder's cap). Component spans
  // additionally attribute the virtual time elapsed since the previous
  // component-span open to `component.<name>.dwell_ms` — every millisecond
  // of clock advance is charged to the next instrumented sweep, so the
  // dwell totals partition the run's virtual time deterministically.
  void BeginSpan(SpanEvent* event);
  void EndSpan(SpanEvent event);

  // Id of the innermost open span (0 = none). This is what messages posted
  // right now get stamped with as their originating span.
  uint64_t current_span_id() const {
    return open_spans_.empty() ? 0 : open_spans_.back().id;
  }

  // Path-keyed ('/'-joined names) span aggregates; lexicographic order puts
  // every parent path strictly before its children.
  const std::map<std::string, SpanAggregate>& span_tree() const { return span_tree_; }

 private:
  struct OpenSpan {
    uint64_t id = 0;
    std::string path;
  };

  bool enabled_ = false;
  MetricsShard metrics_;
  SpanRecorder spans_;
  FlowRecorder flows_;
  uint64_t next_span_id_ = 0;
  uint64_t last_dwell_mark_ms_ = 0;
  std::vector<OpenSpan> open_spans_;
  std::map<std::string, SpanAggregate> span_tree_;
};

// Collects one campaign's observation: per-slot run shards, spans, flows and
// failure dossiers, plus the driver's own wall-clock phase spans (analysis,
// profile, campaign). AbsorbRun/AbsorbDossier are thread-safe; everything
// else is called from the driver thread before or after the campaign
// fan-out.
class CampaignObserver {
 public:
  CampaignObserver() { driver_observer_.Enable(); }

  // Stores the run's shard, spans, span tree and flows under `slot` (the
  // injection index). A run that retires passes its observer by move, so
  // its recorded spans and flows are not copied.
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
  int runs() const;

  // Index-ordered merge of everything absorbed: deterministic counters,
  // gauges and histograms (including per-phase sim-time histograms derived
  // from the spans), the merged span tree and flow statistics, plus the
  // wall-clock sidecar fields.
  SystemMetrics Finalize() const;

  // Emits this campaign as one Chrome-trace process: one thread per run
  // slot on the virtual-time axis (with Perfetto flow arrows linking each
  // delivered message to the delivery that caused it), plus a driver thread
  // on the wall axis.
  void AppendChromeTrace(ChromeTraceWriter* writer, int pid,
                         const std::string& process_name) const;

 private:
  mutable std::mutex mu_;
  MetricsRegistry registry_;
  std::map<int, SpanRecorder> spans_by_slot_;
  std::map<int, std::map<std::string, SpanAggregate>> span_tree_by_slot_;
  std::map<int, FlowRecorder> flows_by_slot_;
  std::map<int, Dossier> dossiers_by_slot_;
  RunObserver driver_observer_;
  std::string system_;
  int jobs_ = 1;
  double campaign_wall_seconds_ = 0;
};

}  // namespace ctobs

#endif  // SRC_OBS_OBSERVER_H_
