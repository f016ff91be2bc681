// Scale-out simulator bench (CI stage 4f): quantifies the ladder-queue /
// slab-allocated event loop against the original std::priority_queue loop,
// and sweeps full-system campaigns across deployment scales and worker
// counts.
//
// Part 1 — scheduler microbench. LegacyEventLoop below is the pre-ladder
// implementation, embedded verbatim (string owners, Event copies out of the
// priority queue, a cancelled-id list scanned linearly on every pop). Both
// loops run the identical self-sustaining schedule/cancel/pop workload: a
// live population of `window` events, each firing event scheduling a
// successor at a pseudorandom delay, with `cancel_pct`% of scheduled events
// cancelled immediately (and replaced, keeping the population constant).
// The acceptance bar is ladder >= 10x legacy events/sec.
//
// Part 2 — campaign sweep. For each --scale level and jobs in {1, 4}, runs
// a fixed batch of fault-free deployments of all five systems (seeds vary
// per replicate) through CampaignEngine, reporting runs/sec, events/sec and
// peak pending-event depth. Per-run event counts must be identical across
// jobs counts (determinism), and jobs=4 must be >= 2x jobs=1 at the largest
// level.
//
//   bench_scale [--json FILE] [SCALE...]        (default levels: 1 2 8)
//
// --json FILE writes the results as BenchRecords. Exit status is the number
// of violated criteria.
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/sim/event_loop.h"

namespace {

// ---------------------------------------------------------------------------
// The event loop this PR replaced, kept as the microbench baseline. This is
// the original implementation (trace/alive hooks dropped — the workload uses
// neither), not a simplification: per-pop costs are the Event copy out of
// priority_queue::top() and the linear cancelled_ scan.
class LegacyEventLoop {
 public:
  using Time = ctsim::Time;
  using EventId = ctsim::EventId;

  Time Now() const { return now_; }

  EventId Schedule(Time delay, std::function<void()> fn, std::string owner = "") {
    return ScheduleAt(now_ + delay, std::move(fn), std::move(owner));
  }

  EventId ScheduleAt(Time when, std::function<void()> fn, std::string owner = "") {
    Event event;
    event.when = when;
    event.seq = next_seq_++;
    event.id = next_id_++;
    event.owner = std::move(owner);
    event.fn = std::move(fn);
    EventId id = event.id;
    queue_.push(std::move(event));
    return id;
  }

  void Cancel(EventId id) { cancelled_.push_back(id); }

  void RunToCompletion() {
    while (PopAndRun()) {
    }
  }

  uint64_t executed_events() const { return executed_events_; }

 private:
  struct Event {
    Time when = 0;
    uint64_t seq = 0;
    EventId id = 0;
    std::string owner;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  bool PopAndRun() {
    while (!queue_.empty()) {
      Event event = queue_.top();  // the copy the ladder loop eliminates
      queue_.pop();
      if (std::find(cancelled_.begin(), cancelled_.end(), event.id) != cancelled_.end()) {
        std::erase(cancelled_, event.id);
        continue;
      }
      now_ = std::max(now_, event.when);
      ++executed_events_;
      event.fn();
      return true;
    }
    return false;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<EventId> cancelled_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t executed_events_ = 0;
};

double Wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct MicroResult {
  uint64_t schedule_ops = 0;
  uint64_t fired = 0;
  double wall_seconds = 0;
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(schedule_ops) / wall_seconds : 0;
  }
};

// Identical workload for both loop types: `window` live events, each firing
// event schedules one successor, `cancel_pct`% of schedules are immediately
// cancelled and replaced. Deterministic LCG, same stream for both loops.
template <typename Loop>
MicroResult RunMicro(long long total_events, int window, int cancel_pct) {
  Loop loop;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  MicroResult result;
  long long remaining = total_events;
  std::function<void()> tick;
  auto schedule_one = [&] {
    while (remaining > 0) {
      --remaining;
      ++result.schedule_ops;
      const ctsim::Time delay = 1 + next() % 2048;
      const ctsim::EventId id = loop.Schedule(delay, tick);
      if (static_cast<int>(next() % 100) < cancel_pct) {
        loop.Cancel(id);
        continue;  // replace the cancelled event; population stays at window
      }
      break;
    }
  };
  tick = [&] {
    ++result.fired;
    schedule_one();
  };
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < window; ++i) {
    schedule_one();
  }
  loop.RunToCompletion();
  result.wall_seconds = Wall(start);
  return result;
}

// ---------------------------------------------------------------------------
// Campaign sweep: replicated fault-free deployments through CampaignEngine.

struct RunStats {
  uint64_t executed = 0;
  uint64_t scheduled = 0;
  uint64_t peak_pending = 0;
};

struct CellResult {
  int scale = 0;
  int jobs = 0;
  int runs = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  uint64_t peak_pending = 0;
  std::vector<uint64_t> per_task_events;  // determinism fingerprint
  double runs_per_sec() const {
    return wall_seconds > 0 ? runs / wall_seconds : 0;
  }
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

constexpr int kReplicates = 8;

RunStats ExecuteFaultFree(const ctcore::SystemUnderTest& system, uint64_t seed) {
  std::unique_ptr<ctcore::WorkloadRun> run =
      system.NewRun(system.default_workload_size(), seed);
  ctrt::ScopedRunContext bind(run->context());
  run->cluster().StartAll();
  run->Start();
  ctsim::EventLoop& loop = run->cluster().loop();
  loop.RunUntil(run->ExpectedDurationMs() * 2);
  RunStats stats;
  stats.executed = loop.executed_events();
  stats.scheduled = loop.scheduled_events();
  stats.peak_pending = loop.peak_pending_events();
  return stats;
}

CellResult SweepCell(const std::vector<std::unique_ptr<ctcore::SystemUnderTest>>& systems,
                     int scale, int jobs) {
  ctcore::CampaignEngine engine(jobs);
  const int tasks = static_cast<int>(systems.size()) * kReplicates;
  const auto start = std::chrono::steady_clock::now();
  std::vector<RunStats> stats = engine.Map(tasks, [&](int i) {
    const auto& system = systems[static_cast<size_t>(i) % systems.size()];
    const uint64_t replicate = static_cast<uint64_t>(i) / systems.size();
    return ExecuteFaultFree(*system, 0x5eedull + replicate);
  });
  CellResult cell;
  cell.scale = scale;
  cell.jobs = jobs;
  cell.runs = tasks;
  cell.wall_seconds = Wall(start);
  for (const RunStats& s : stats) {
    cell.events += s.executed;
    cell.peak_pending = std::max(cell.peak_pending, s.peak_pending);
    cell.per_task_events.push_back(s.scheduled);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  std::vector<int> levels;
  for (const std::string& arg : flags.positional) {
    const int level = std::atoi(arg.c_str());
    if (level >= 1) {
      levels.push_back(level);
    }
  }
  if (levels.empty()) {
    levels = {1, 2, 8};
  }

  ctbench::PrintHeader("Scale-out simulator core: scheduler + campaign sweep");

  // Part 1: microbench.
  const long long kMicroEvents = 400000;
  const int kWindow = 10000;
  const int kCancelPct = 30;
  MicroResult legacy = RunMicro<LegacyEventLoop>(kMicroEvents, kWindow, kCancelPct);
  MicroResult ladder = RunMicro<ctsim::EventLoop>(kMicroEvents, kWindow, kCancelPct);
  const double ratio =
      legacy.events_per_sec() > 0 ? ladder.events_per_sec() / legacy.events_per_sec() : 0;
  std::printf("scheduler microbench (%lld events, %d live, %d%% cancels)\n", kMicroEvents,
              kWindow, kCancelPct);
  std::printf("  legacy priority_queue : %12.0f events/sec  (%.2fs)\n",
              legacy.events_per_sec(), legacy.wall_seconds);
  std::printf("  ladder + slab         : %12.0f events/sec  (%.2fs)\n",
              ladder.events_per_sec(), ladder.wall_seconds);
  std::printf("  speedup               : %11.1fx  (bar: >= 10x)\n", ratio);
  if (legacy.fired != ladder.fired) {
    std::printf("  WARNING: fired-event counts differ (legacy %llu vs ladder %llu)\n",
                static_cast<unsigned long long>(legacy.fired),
                static_cast<unsigned long long>(ladder.fired));
  }

  // Part 2: campaign sweep.
  ctbench::PrintRule();
  std::printf("%-7s %-5s %6s %10s %12s %14s %12s\n", "scale", "jobs", "runs", "wall_s",
              "runs/sec", "events/sec", "peak_pend");
  std::vector<CellResult> cells;
  bool deterministic = true;
  for (int scale : levels) {
    auto systems = ctbench::AllSystems();
    for (auto& system : systems) {
      system->set_scale(scale);
      (void)system->model();  // warm the per-system artifact singletons
    }
    CellResult sequential = SweepCell(systems, scale, 1);
    CellResult parallel = SweepCell(systems, scale, 4);
    deterministic = deterministic && sequential.per_task_events == parallel.per_task_events;
    for (const CellResult& cell : {sequential, parallel}) {
      std::printf("%-7d %-5d %6d %10.3f %12.1f %14.0f %12llu\n", cell.scale, cell.jobs,
                  cell.runs, cell.wall_seconds, cell.runs_per_sec(), cell.events_per_sec(),
                  static_cast<unsigned long long>(cell.peak_pending));
    }
    cells.push_back(sequential);
    cells.push_back(parallel);
  }
  const CellResult& last_seq = cells[cells.size() - 2];
  const CellResult& last_par = cells[cells.size() - 1];
  const double jobs4_speedup =
      last_par.wall_seconds > 0 ? last_seq.wall_seconds / last_par.wall_seconds : 0;
  // The speedup bar only means something when 4 workers have 4 cores to run
  // on; on smaller machines (single-core CI containers) the number is
  // reported but not enforced, same as the stage-4 parallel smoke.
  const int hardware_threads = ctcore::ResolveJobs(0);
  const bool enforce_speedup = ctbench::EnforceSpeedupBar(hardware_threads);
  std::printf("jobs=4 speedup at scale %d: %.2fx  (bar: >= 2x, %s on %d hardware thread(s))\n",
              last_seq.scale, jobs4_speedup, enforce_speedup ? "enforced" : "not enforced",
              hardware_threads);
  std::printf("per-run event counts identical across jobs: %s\n", deterministic ? "yes" : "NO");

  ctbench::BenchRecords records;
  records.Add("micro.legacy_events_per_s", "events/s", legacy.events_per_sec());
  records.Add("micro.ladder_events_per_s", "events/s", ladder.events_per_sec());
  records.AddBar("micro.speedup", "x", ratio, ">= 10", ratio >= 10.0);
  for (const CellResult& cell : cells) {
    const std::string prefix =
        "sweep.scale" + std::to_string(cell.scale) + ".jobs" + std::to_string(cell.jobs) + ".";
    records.Add(prefix + "runs", "count", cell.runs);
    records.Add(prefix + "wall_s", "s", cell.wall_seconds);
    records.Add(prefix + "runs_per_s", "runs/s", cell.runs_per_sec());
    records.Add(prefix + "events_per_s", "events/s", cell.events_per_sec());
    records.Add(prefix + "peak_pending", "count", cell.peak_pending);
  }
  records.AddBar("sweep.jobs4_speedup", "x", jobs4_speedup, ">= 2", jobs4_speedup >= 2.0,
                 enforce_speedup);
  records.AddBar("sweep.deterministic", "bool", deterministic, "== 1", deterministic);
  records.Add("hardware_threads", "count", hardware_threads);
  return records.Finish(flags.json_path);
}
