#include "src/obs/observer.h"

#include <algorithm>

#include "src/obs/chrome_trace.h"
#include "src/obs/snapshot.h"
#include "src/sim/event_loop.h"

namespace ctobs {

namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(CampaignObserver::Clock::duration duration) {
  return std::chrono::duration<double>(duration).count();
}

}  // namespace

std::string_view PhaseName(Phase phase) {
  static constexpr std::array<std::string_view, kNumPhases> kNames = {
      "workload", "injection", "recovery-check"};
  return kNames[static_cast<size_t>(phase)];
}

ScopedPhase::ScopedPhase(RunObserver* observer, const ctsim::EventLoop& loop, Phase phase)
    : loop_(loop) {
  if (observer == nullptr) {
    return;
  }
  stamp_ = &observer->phases()[phase];
  stamp_->recorded = true;
  stamp_->sim_begin_ms = loop_.Now();
  stamp_->wall_begin_ns = WallNowNs();
}

ScopedPhase::~ScopedPhase() {
  if (stamp_ == nullptr) {
    return;
  }
  stamp_->sim_end_ms = loop_.Now();
  stamp_->wall_end_ns = WallNowNs();
}

void CampaignObserver::AbsorbRun(int slot, RunObserver run) {
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
  metrics_.Merge(run.metrics());
  phases_by_slot_[slot] = std::move(run.phases());
  if (!run.flows().empty()) {
    flows_by_slot_[slot] = std::move(run.flows());
  }
}

void CampaignObserver::AddDriverPhase(std::string name, Clock::time_point begin,
                                      Clock::time_point end) {
  driver_phases_.push_back({std::move(name), begin, end});
}

SystemMetrics CampaignObserver::Finalize() const {
  std::lock_guard<std::mutex> lock(mu_);
  SystemMetrics out;
  out.system = system_;
  out.jobs = jobs_;
  out.runs = runs_;
  out.metrics = metrics_;
  // Fold each recorded phase into its sim-time histogram, walking slots in
  // index order; wall durations go into the nondeterministic sidecar map.
  // Injections share one "phase.injection" histogram and keep their anchor
  // frame as per-injection "span.inject:<frame>" counters.
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const std::string name(PhaseName(phase));
    for (const auto& [slot, table] : phases_by_slot_) {
      const PhaseStamp& stamp = table[phase];
      if (!stamp.recorded) {
        continue;
      }
      out.metrics.Observe("phase." + name, stamp.sim_ms());
      out.phase_wall_seconds[name] += stamp.wall_seconds();
      if (phase == Phase::kInjection) {
        out.metrics.Add("span." + table.injection_name);
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
  for (const DriverPhase& phase : driver_phases_) {
    out.driver_wall_seconds[phase.name] += Seconds(phase.end - phase.begin);
  }
  if (auto campaign = out.driver_wall_seconds.find("campaign");
      campaign != out.driver_wall_seconds.end()) {
    out.campaign_wall_seconds = campaign->second;
  }
  return out;
}

void CampaignObserver::AppendChromeTrace(ChromeTraceWriter* writer, int pid,
                                         const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  writer->AddProcessName(pid, process_name);
  // Driver phases on a wall axis normalized to the earliest driver phase.
  if (!driver_phases_.empty()) {
    writer->AddThreadName(pid, 0, "driver (wall)");
    Clock::time_point origin = driver_phases_.front().begin;
    for (const DriverPhase& phase : driver_phases_) {
      origin = std::min(origin, phase.begin);
    }
    for (const DriverPhase& phase : driver_phases_) {
      const double seconds = Seconds(phase.end - phase.begin);
      writer->AddCompleteEvent(pid, 0, phase.name, "driver", Seconds(phase.begin - origin) * 1e6,
                               seconds * 1e6, seconds * 1e3);
    }
  }
  // One thread per injection slot on the virtual-time axis (deterministic).
  for (const auto& [slot, table] : phases_by_slot_) {
    const int tid = slot + 1;
    writer->AddThreadName(pid, tid, "run #" + std::to_string(slot) + " (virtual)");
    for (size_t i = 0; i < kNumPhases; ++i) {
      const Phase phase = static_cast<Phase>(i);
      const PhaseStamp& stamp = table[phase];
      if (!stamp.recorded) {
        continue;
      }
      const double ts_us = static_cast<double>(stamp.sim_begin_ms) * 1e3;
      const double dur_us = static_cast<double>(stamp.sim_ms()) * 1e3;
      if (phase == Phase::kInjection) {
        writer->AddCompleteEvent(pid, tid, table.injection_name, "injection", ts_us, dur_us,
                                 stamp.wall_seconds() * 1e3,
                                 {{"point", std::to_string(table.injection_point)},
                                  {"target", table.injection_target}});
      } else {
        writer->AddCompleteEvent(pid, tid, PhaseName(phase), "phase", ts_us, dur_us,
                                 stamp.wall_seconds() * 1e3);
      }
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
