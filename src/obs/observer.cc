#include "src/obs/observer.h"

#include <algorithm>

#include "src/obs/chrome_trace.h"
#include "src/obs/snapshot.h"

namespace ctobs {

void RunObserver::BeginSpan(SpanEvent* event) {
  event->id = ++next_span_id_;
  event->parent_id = open_spans_.empty() ? 0 : open_spans_.back();
  open_spans_.push_back(event->id);
}

void RunObserver::EndSpan(SpanEvent event) {
  if (!open_spans_.empty() && open_spans_.back() == event.id) {
    open_spans_.pop_back();
  }
  spans_.push_back(std::move(event));
}

void CampaignObserver::AbsorbRun(int slot, RunObserver run) {
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
  metrics_.Merge(run.metrics());
  spans_by_slot_[slot] = std::move(run.spans());
  if (!run.flows().empty()) {
    flows_by_slot_[slot] = std::move(run.flows());
  }
}

void CampaignObserver::AbsorbDossier(int slot, Dossier dossier) {
  std::lock_guard<std::mutex> lock(mu_);
  dossiers_by_slot_[slot] = std::move(dossier);
}

std::vector<Dossier> CampaignObserver::dossiers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Dossier> out;
  out.reserve(dossiers_by_slot_.size());
  for (const auto& [slot, dossier] : dossiers_by_slot_) {
    out.push_back(dossier);
  }
  return out;
}

SystemMetrics CampaignObserver::Finalize() const {
  std::lock_guard<std::mutex> lock(mu_);
  SystemMetrics out;
  out.system = system_;
  out.jobs = jobs_;
  out.campaign_wall_seconds = campaign_wall_seconds_;
  out.runs = runs_;
  out.metrics = metrics_;
  // Fold spans into per-phase sim-time histograms, walking slots in index
  // order; wall durations go into the nondeterministic sidecar maps. Model-
  // named injection spans share one "phase.injection" histogram and keep
  // their identity as per-span counters.
  for (const auto& [slot, spans] : spans_by_slot_) {
    for (const SpanEvent& event : spans) {
      if (event.category == "injection") {
        out.metrics.Observe("phase.injection", event.sim_duration_ms());
        out.metrics.Add("span." + event.name);
        out.phase_wall_seconds["injection"] += event.wall_seconds();
      } else {
        out.metrics.Observe("phase." + event.name, event.sim_duration_ms());
        out.phase_wall_seconds[event.name] += event.wall_seconds();
      }
    }
  }
  // Merge flow statistics (sums and a max) in slot order.
  for (const auto& [slot, flows] : flows_by_slot_) {
    out.flows.messages += flows.messages();
    out.flows.roots += flows.roots();
    out.flows.max_depth = std::max(out.flows.max_depth, flows.max_depth());
    out.flows.records_dropped += flows.dropped();
    for (const auto& [method, count] : flows.per_method()) {
      out.flows.per_method[method] += count;
    }
  }
  for (const SpanEvent& event : driver_observer_.spans()) {
    out.driver_wall_seconds[event.name] += event.wall_seconds();
  }
  return out;
}

void CampaignObserver::AppendChromeTrace(ChromeTraceWriter* writer, int pid,
                                         const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  writer->AddProcessName(pid, process_name);
  // Driver phases on a wall axis normalized to the earliest driver span.
  const std::vector<SpanEvent>& driver_events = driver_observer_.spans();
  if (!driver_events.empty()) {
    writer->AddThreadName(pid, 0, "driver (wall)");
    uint64_t origin_ns = driver_events.front().wall_begin_ns;
    for (const SpanEvent& event : driver_events) {
      origin_ns = std::min(origin_ns, event.wall_begin_ns);
    }
    for (const SpanEvent& event : driver_events) {
      writer->AddCompleteEvent(pid, 0, event,
                               static_cast<double>(event.wall_begin_ns - origin_ns) / 1e3,
                               static_cast<double>(event.wall_end_ns - event.wall_begin_ns) /
                                   1e3);
    }
  }
  // One thread per injection slot on the virtual-time axis (deterministic).
  for (const auto& [slot, spans] : spans_by_slot_) {
    const int tid = slot + 1;
    writer->AddThreadName(pid, tid, "run #" + std::to_string(slot) + " (virtual)");
    for (const SpanEvent& event : spans) {
      writer->AddCompleteEvent(pid, tid, event, static_cast<double>(event.sim_begin_ms) * 1e3,
                               static_cast<double>(event.sim_duration_ms()) * 1e3);
    }
  }
  // Perfetto flow arrows: for every retained delivery caused by another
  // retained delivery, a start event at the parent's timestamp and a finish
  // at the child's. Flow ids are sequential from 1 and recorded in order, so
  // a parent id within the retained range is always present.
  for (const auto& [slot, flows] : flows_by_slot_) {
    const int tid = slot + 1;
    for (const ctsim::FlowRecord& record : flows.records()) {
      if (record.parent == 0 || record.parent > flows.records().size()) {
        continue;
      }
      const ctsim::FlowRecord& parent = flows.records()[record.parent - 1];
      const std::string& method = flows.method_name(record.method);
      const uint64_t flow_id =
          (static_cast<uint64_t>(slot + 1) << 32) | record.id;
      writer->AddFlowStart(pid, tid, method, flow_id,
                           static_cast<double>(parent.sim_ms) * 1e3);
      writer->AddFlowFinish(pid, tid, method, flow_id,
                            static_cast<double>(record.sim_ms) * 1e3);
    }
  }
}

}  // namespace ctobs
