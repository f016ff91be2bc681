// CrashTuner campaign benchmark.
//
// Runs one named workload through the pipeline's public entry point,
// CrashTunerDriver::Run, and prints, as the last line of stdout, one JSON
// object:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {NAME: {"value": V, "unit": U}}}
//
//   perfbench --workload paper|scale8 [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out FILE] [--setup-only] [--smoke] [--inject-mismatch]
//
// A pass is the workload's whole campaign (all five systems) run once, and an
// operation is a pass. A pass fails if it throws or if its outputs differ
// from the recorded values (default seed) or from the run's first pass.
//
// --trace 0 times passes for --seconds and prints the end-to-end metrics.
// --trace 1 interleaves untraced, traced and observed passes for --seconds:
// a traced pass rebuilds CrashTunerDriver::Run from each layer's public
// functions, timed from this file, one span per call (kept in memory and
// written to --spans-out at exit). Then it runs the isolation probes and
// prints the per-layer metrics. --setup-only stops after set-up and prints
// {"setup_s": X}; --smoke makes scale8 a short scale-2 pass;
// --inject-mismatch corrupts one expected output so every check must fail.
// README.md says why the workloads and metrics are these.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/profiler.h"
#include "src/core/trigger.h"
#include "src/fuzz/fuzz_phase.h"
#include "src/fuzz/generator.h"
#include "src/obs/observer.h"
#include "src/sim/event_loop.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 2019;
// Metric-name keys of the five systems, in the order MakeSystems builds them.
const char* const kSystemKeys[] = {"yarn", "hdfs", "hbase", "zookeeper", "cassandra"};

// Outputs of the default seed, one SystemOutput per system in kSystemKeys
// order. A program change that alters any of them fails every pass.
const std::map<std::string, std::vector<std::string>> kRecorded = {
    {"paper",
     {"bugs=MR-7178,YARN-8649,YARN-8650,YARN-9164,YARN-9165,YARN-9193,YARN-9194,YARN-9201,"
      "YARN-9238,YARN-9248 hash=25d638e0a2bfe7e5",
      "bugs=HDFS-14216,HDFS-14372 hash=7368e38b731ceadb",
      "bugs=HBASE-21740,HBASE-22017,HBASE-22023,HBASE-22041,HBASE-22050 hash=e74b155957181787",
      "bugs= hash=0726c82b1cf356b0", "bugs=CA-15131 hash=3ea20952b10accfc"}},
    {"scale8",
     {"bugs=MR-7178,YARN-8649,YARN-8650,YARN-9164,YARN-9165,YARN-9193,YARN-9194,YARN-9201,"
      "YARN-9238,YARN-9248 hash=505957fddb34bfe5",
      "bugs=HDFS-14216,HDFS-14372 hash=a82071eb81b916b2",
      "bugs=HBASE-21740,HBASE-22017,HBASE-22023,HBASE-22041,HBASE-22050 hash=c8da4164e82c4340",
      "bugs= hash=0ac0f04a9ad234c9", "bugs=CA-15131 hash=2470582dca5f33fe"}},
};

const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// The sorted sample at index floor(q * (n - 1)), q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
}

// The highest percentile with at least ten samples beyond it (nearest rank):
// with n sorted samples that is the value at rank n-10, the
// 100*(n-10)/n-th percentile. Below 11 samples no such percentile exists and
// the median stands in (pct = 50).
struct Tail {
  double value = 0;
  double pct = 50;
};

Tail TailOf(std::vector<double> values) {
  if (values.size() < 11) {
    return Tail{Median(values), 50};
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return Tail{values[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

// ---------------------------------------------------------------------------
// Spans of the traced run: one per timed call into a layer, nested by call
// structure, tagged with the pass they belong to (0 = set-up and probes).

struct Span {
  std::string name;
  int pass = 0;
  int parent = -1;  // index of the enclosing span; -1 = root
  double start_s = 0;  // since process start
  double end_s = 0;
};

class SpanLog {
 public:
  void set_pass(int pass) { pass_ = pass; }

  int Open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.pass = pass_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = Since(kProcessStart);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_s = Since(kProcessStart);
    if (!open_.empty() && open_.back() == index) {
      open_.pop_back();
    }
  }

  // Per span name: calls, total time, and self time (total minus the time
  // its child spans cover; children never overlap, they run one at a time).
  struct Summary {
    int calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> Summarize() const {
    std::vector<double> child_s(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
      }
    }
    std::map<std::string, Summary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Summary& summary = out[spans_[i].name];
      const double total = spans_[i].end_s - spans_[i].start_s;
      ++summary.calls;
      summary.total_s += total;
      summary.self_s += total - child_s[i];
    }
    return out;
  }

  bool Write(const std::string& path, const std::string& workload, uint64_t seed) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [";
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(line, sizeof(line),
                    "%s\n  {\"id\": %zu, \"name\": \"%s\", \"pass\": %d, \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f}",
                    i == 0 ? "" : ",", i, span.name.c_str(), span.pass, span.parent,
                    span.start_s, span.end_s);
      out << line;
    }
    out << "\n], \"summary\": {";
    bool first = true;
    for (const auto& [name, summary] : Summarize()) {
      std::snprintf(line, sizeof(line),
                    "%s\n  \"%s\": {\"calls\": %d, \"total_s\": %.9f, \"self_s\": %.9f}",
                    first ? "" : ",", name.c_str(), summary.calls, summary.total_s,
                    summary.self_s);
      out << line;
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int pass_ = 0;
};

// Times one scope; records it as a span when a log is given (traced run).
class Timer {
 public:
  Timer(SpanLog* log, std::string name)
      : log_(log), index_(log != nullptr ? log->Open(std::move(name)) : -1) {}
  ~Timer() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  double Seconds() const { return Since(start_); }

 private:
  SpanLog* log_;
  int index_;
  Clock::time_point start_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadConfig {
  std::string name;
  int scale = 1;
  int warmup_passes = 0;  // untimed passes at the end of set-up
  bool recorded = true;   // kRecorded applies (not the smoke sizes)
};

bool MakeConfig(const std::string& name, bool smoke, WorkloadConfig* config) {
  config->name = name;
  if (name == "paper") {
    config->warmup_passes = smoke ? 0 : 10;
  } else if (name == "scale8") {
    config->scale = smoke ? 2 : 8;
    config->recorded = !smoke;
  } else {
    return false;
  }
  return true;
}

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> MakeSystems(int scale) {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  for (auto& system : systems) {
    system->set_scale(scale);
  }
  return systems;
}

// FNV-1a mix of per-run trace hashes in injection order, exactly as the
// driver folds SystemReport::trace_hash.
uint64_t CampaignHash(const std::vector<ctcore::InjectionResult>& injections) {
  if (injections.empty()) {
    return 0;
  }
  uint64_t combined = 1469598103934665603ull;
  for (const auto& injection : injections) {
    for (int shift = 0; shift < 64; shift += 8) {
      combined ^= (injection.trace_hash >> shift) & 0xffull;
      combined *= 1099511628211ull;
    }
  }
  return combined;
}

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(value));
  return text;
}

// What a pass produced for one system: its detected bug ids and campaign
// trace hash.
std::string SystemOutput(const ctcore::SystemReport& report) {
  std::string bugs;
  for (const auto& bug : report.bugs) {
    bugs += (bugs.empty() ? "" : ",") + bug.bug_id;
  }
  return "bugs=" + bugs + " hash=" + Hex(report.trace_hash);
}

using PassOutput = std::vector<std::string>;  // one entry per system

// Compares every pass with the recorded outputs (default seed) or with the
// run's first pass, and reports each difference on stderr.
class OutputCheck {
 public:
  OutputCheck(const WorkloadConfig& config, uint64_t seed, bool inject_mismatch)
      : workload_(config.name), inject_mismatch_(inject_mismatch) {
    auto it = kRecorded.find(config.name);
    if (seed == kDefaultSeed && config.recorded && it != kRecorded.end()) {
      expected_ = it->second;
      Corrupt();
    }
  }

  bool Check(const std::string& what, const PassOutput& outputs) {
    if (expected_.empty()) {
      expected_ = outputs;  // the run's first pass is the reference
      Corrupt();
    }
    ++compared_;
    bool ok = outputs.size() == expected_.size();
    for (size_t i = 0; i < outputs.size() && i < expected_.size(); ++i) {
      if (outputs[i] != expected_[i]) {
        std::fprintf(stderr, "OUTPUT MISMATCH %s %s %s:\n  expected %s\n  got      %s\n",
                     workload_.c_str(), what.c_str(), kSystemKeys[i], expected_[i].c_str(),
                     outputs[i].c_str());
        ok = false;
      }
    }
    mismatched_ += ok ? 0 : 1;
    return ok;
  }

  int compared() const { return compared_; }
  int mismatched() const { return mismatched_; }

  void PrintExpected() const {
    for (size_t i = 0; i < expected_.size(); ++i) {
      std::printf("  %-10s %s\n", kSystemKeys[i], expected_[i].c_str());
    }
  }

 private:
  void Corrupt() {
    if (inject_mismatch_ && !expected_.empty()) {
      expected_[0] += " (corrupted)";
    }
  }

  std::string workload_;
  bool inject_mismatch_;
  std::vector<std::string> expected_;
  int compared_ = 0;
  int mismatched_ = 0;
};

// Layer times and counts of one traced pass, summed over the systems.
struct LayerSample {
  double log_s = 0;
  double metainfo_s = 0;
  double crash_points_s = 0;
  double profile_s = 0;
  double inject_s = 0;
  int profile_runs = 0;
  int inject_runs = 0;
  int injected = 0;
  int bug_runs = 0;
};

struct LayerStats {
  std::vector<LayerSample> passes;
  std::vector<double> inject_ms;   // every TestPoint call
  std::vector<double> new_run_ms;  // every timed NewRun call
  std::vector<double> oracle_us;   // every timed ExceptionsIn call
};

class Bench {
 public:
  Bench(WorkloadConfig config, uint64_t seed)
      : config_(std::move(config)), seed_(seed), systems_(MakeSystems(config_.scale)),
        reports_(systems_.size()), filters_(systems_.size()) {}

  const WorkloadConfig& config() const { return config_; }
  size_t size() const { return systems_.size(); }
  const ctcore::SystemUnderTest& system(size_t i) const { return *systems_[i]; }
  // Each system's report from the last pass, and its online log filter from
  // the last traced pass.
  const ctcore::SystemReport& report(size_t i) const { return reports_[i]; }
  const ctlog::OnlineFilter& filter(size_t i) const { return filters_[i]; }

  // The first model() call of each system builds its static model.
  double BuildModels(SpanLog* spans) {
    Timer timer(spans, "model.build");
    for (const auto& system : systems_) {
      (void)system->model();
    }
    return timer.Seconds();
  }

  // One pass. `job_s` receives each system's share; `observe` attaches a
  // fresh CampaignObserver to each system's campaign; `layers` makes it a
  // traced pass that runs the decomposed pipeline.
  PassOutput Pass(SpanLog* spans, LayerStats* layers, std::vector<double>* job_s, bool observe) {
    Timer pass_timer(spans, "pass");
    if (layers != nullptr) {
      layers->passes.emplace_back();
    }
    PassOutput outputs;
    for (size_t i = 0; i < systems_.size(); ++i) {
      Timer timer(spans, std::string("job.") + kSystemKeys[i]);
      if (layers != nullptr) {
        reports_[i] = DecomposedRun(i, spans, layers, &layers->passes.back());
      } else {
        auto observer = observe ? std::make_unique<ctobs::CampaignObserver>() : nullptr;
        ctcore::DriverOptions options;
        options.seed = seed_;
        options.observer = observer.get();
        reports_[i] = ctcore::CrashTunerDriver().Run(*systems_[i], options);
      }
      outputs.push_back(SystemOutput(reports_[i]));
      if (job_s != nullptr) {
        job_s->push_back(timer.Seconds());
      }
    }
    return outputs;
  }

 private:
  // CrashTunerDriver::Run with default options (profiled contexts, crash
  // mode, exhaustive selection, jobs=1), one public call at a time.
  ctcore::SystemReport DecomposedRun(size_t i, SpanLog* spans, LayerStats* layers,
                                     LayerSample* sample) {
    const ctcore::SystemUnderTest& system = *systems_[i];
    const ctmodel::ProgramModel& model = system.model();
    ctcore::SystemReport report;
    report.system = system.name();

    std::unique_ptr<ctcore::WorkloadRun> log_run;
    {
      Timer timer(spans, "core.new_run");
      log_run = system.NewRun(system.default_workload_size(), seed_);
      layers->new_run_ms.push_back(timer.Seconds() * 1e3);
    }
    {
      Timer timer(spans, "core.execute");
      ctcore::Executor::Execute(*log_run, /*baseline=*/nullptr);
    }
    {
      Timer timer(spans, "core.oracle");
      (void)ctcore::Executor::ExceptionsIn(log_run->cluster().logs());
      layers->oracle_us.push_back(timer.Seconds() * 1e6);
    }
    const std::vector<ctlog::Instance> logs = log_run->cluster().logs().instances();
    const ctanalysis::LogAnalysis log_analysis(&model, log_run->cluster().config_hosts());
    log_run.reset();
    {
      Timer timer(spans, "analysis.log");
      report.log_result = log_analysis.Analyze(logs);
      sample->log_s += timer.Seconds();
    }
    {
      Timer timer(spans, "analysis.metainfo");
      report.metainfo = ctanalysis::MetaInfoInference(&model).Infer(
          report.log_result.seed_types, report.log_result.seed_fields);
      sample->metainfo_s += timer.Seconds();
    }
    {
      Timer timer(spans, "analysis.crash_points");
      report.crash_points = ctanalysis::CrashPointAnalysis(&model, &report.metainfo)
                                .Identify(ctanalysis::CrashPointOptions());
      sample->crash_points_s += timer.Seconds();
    }
    {
      Timer timer(spans, "core.profile");
      report.profile =
          ctcore::Profiler().Profile(system, report.crash_points.PointIds(), {}, seed_);
      sample->profile_s += timer.Seconds();
      sample->profile_runs += report.profile.iterations;
    }

    filters_[i] = log_analysis.MakeOnlineFilter(report.log_result);
    ctcore::FaultInjectionTester tester(&system, &report.crash_points, filters_[i],
                                        report.profile.baseline,
                                        report.profile.normal_duration_ms);
    // Task order and seeds of FaultInjectionTester::TestAll.
    std::map<int, ctanalysis::CrashPointKind> kinds;
    for (const auto& point : report.crash_points.points) {
      kinds[point.access_point_id] = point.kind;
    }
    for (const auto& point : report.profile.dynamic_access_points) {
      auto kind = kinds.find(point.point_id);
      if (kind == kinds.end()) {
        continue;
      }
      const int index = static_cast<int>(report.injections.size());
      Timer timer(spans, "core.inject");
      report.injections.push_back(tester.TestPoint(
          point, kind->second, seed_ + 1000 + static_cast<uint64_t>(index), index));
      const double seconds = timer.Seconds();
      const ctcore::InjectionResult& result = report.injections.back();
      sample->inject_s += seconds;
      layers->inject_ms.push_back(seconds * 1e3);
      ++sample->inject_runs;
      sample->injected += result.injected ? 1 : 0;
      sample->bug_runs += result.injected && result.outcome.IsBug() ? 1 : 0;
    }
    report.trace_hash = CampaignHash(report.injections);
    {
      Timer timer(spans, "core.triage");
      report.bugs = ctcore::TriageBugs(system, report.injections);
    }
    return report;
  }

  WorkloadConfig config_;
  uint64_t seed_;
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems_;
  std::vector<ctcore::SystemReport> reports_;
  std::vector<ctlog::OnlineFilter> filters_;
};

// ---------------------------------------------------------------------------
// Isolation probes.

// One fault-free run, driven like Executor::Execute but with NewRun,
// StartAll, Start and the loop drain timed apart. The variants add the
// profile-mode tracer on the static crash points, or one LogstashAgent per
// node feeding a CustomStash.
enum class ProbeVariant { kPlain, kProfile, kAgents };

struct ProbeResult {
  double total_s = 0;
  double new_run_s = 0;
  double drain_s = 0;
  double oracle_us = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t peak_pending = 0;
};

ProbeResult ProbeRun(const ctcore::SystemUnderTest& system, const ctcore::SystemReport& report,
                     const ctlog::OnlineFilter& filter, uint64_t seed, ProbeVariant variant,
                     SpanLog* spans) {
  ProbeResult result;
  Timer total(spans, "sim.probe");
  const std::set<int> points = report.crash_points.PointIds();
  std::unique_ptr<ctcore::WorkloadRun> run;
  {
    Timer timer(spans, "core.new_run");
    run = system.NewRun(system.default_workload_size(), seed, [&](ctrt::RunContext& context) {
      if (variant == ProbeVariant::kProfile) {
        context.tracer().Reset(ctrt::TraceMode::kProfile);
        context.tracer().SetProfiledPoints(points, {});
      }
    });
    result.new_run_s = timer.Seconds();
  }
  ctrt::ScopedRunContext bind(run->context());
  ctsim::Cluster& cluster = run->cluster();
  ctsim::EventLoop& loop = cluster.loop();
  ctlog::CustomStash stash(filter);
  std::vector<std::unique_ptr<ctlog::LogstashAgent>> agents;
  if (variant == ProbeVariant::kAgents) {
    for (const std::string& node : cluster.node_ids()) {
      agents.push_back(std::make_unique<ctlog::LogstashAgent>(node, &stash));
    }
    cluster.logs().Subscribe([&agents](const ctlog::Instance& instance) {
      for (auto& agent : agents) {
        agent->OnInstance(instance);
      }
    });
  }
  {
    Timer timer(spans, "sim.start_all");
    cluster.StartAll();
  }
  {
    Timer timer(spans, "sim.start");
    run->Start();
  }
  {
    Timer timer(spans, "sim.drain");
    const ctsim::Time hang_deadline =
        loop.Now() + run->ExpectedDurationMs() * ctcore::Executor::kHangFactor;
    while (!run->JobFinished() && !run->JobFailed() && !cluster.cluster_down()) {
      if (loop.Now() > hang_deadline || loop.pending_events() == 0) {
        break;
      }
      loop.RunOne();
    }
    if (run->JobFinished() && !cluster.cluster_down()) {
      loop.RunFor(3000);  // the executor's post-completion grace drain
    }
    result.drain_s = timer.Seconds();
  }
  result.total_s = total.Seconds();
  {
    Timer timer(spans, "core.oracle");
    (void)ctcore::Executor::ExceptionsIn(cluster.logs());
    result.oracle_us = timer.Seconds() * 1e6;
  }
  result.events = loop.executed_events();
  result.messages = cluster.delivered_messages();
  result.peak_pending = loop.peak_pending_events();
  return result;
}

// Scheduler-only load through ctsim::EventLoop: a live population of 4,096
// no-op events; every pop schedules a successor 1..2048 ms out, and 30% of
// schedules are cancelled and replaced. No handler does any work.
double LoopNsPerEvent(int events) {
  ctsim::EventLoop loop;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  auto noop = [] {};
  auto schedule = [&] {
    ctsim::EventId id = loop.Schedule(1 + next() % 2048, noop);
    while (next() % 100 < 30) {
      loop.Cancel(id);
      id = loop.Schedule(1 + next() % 2048, noop);
    }
  };
  for (int i = 0; i < 4096; ++i) {
    schedule();
  }
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < events; ++i) {
    loop.RunOne();
    schedule();
  }
  return Since(start) * 1e9 / events;
}

// One CampaignEngine::Map of 8 empty tasks at jobs=2: the per-call cost of
// spawning and joining the worker threads.
double MapMicros() {
  ctcore::CampaignEngine engine(2);
  std::vector<double> micros;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point start = Clock::now();
    const std::vector<int> out = engine.Map(8, [](int task) { return task; });
    micros.push_back(Since(start) * 1e6);
    if (out.size() != 8) {
      throw std::runtime_error("CampaignEngine::Map returned a short result");
    }
  }
  return Median(micros);
}

// OpSequenceGenerator::Generate and Mutate, microseconds per call.
double GenMicros(const Bench& bench, uint64_t seed) {
  std::vector<double> micros;
  for (size_t i = 0; i < bench.size(); ++i) {
    const ctcore::SystemUnderTest& system = bench.system(i);
    const ctfuzz::OpSequenceGenerator generator(&system.model());
    if (!generator.HasGrammar()) {
      continue;
    }
    ctcommon::Rng rng(seed + i);
    for (int batch = 0; batch < 50; ++batch) {
      const Clock::time_point start = Clock::now();
      size_t ops = 0;
      for (int k = 0; k < 10; ++k) {
        const ctfuzz::FuzzWorkload workload =
            generator.Generate(rng, system.default_workload_size());
        ops += generator.Mutate(workload, rng).ops.size();
      }
      micros.push_back(Since(start) * 1e6 / 20);
      if (ops == 0) {
        throw std::runtime_error("OpSequenceGenerator produced no ops");
      }
    }
  }
  return Median(micros);
}

// The fuzz layer: one RunFuzzPhase campaign per system at jobs=2, then the
// same at jobs=1, on the scale-1 pipeline reports of `bench`. Not a timed
// workload (see README.md): a campaign's cost moves with the seed.
struct FuzzLayer {
  double j1_s = 0;
  double j2_s = 0;
  double cpu_util = 0;  // CPU / (wall x 2) at jobs=2
  int runs = 0;
  int corpus = 0;
  int new_pairs = 0;
  int bug_runs = 0;
  int new_coverage_runs = 0;
  bool deterministic = true;  // equal fuzz trace hashes at jobs=1 and jobs=2
};

FuzzLayer MeasureFuzzLayer(const Bench& bench, uint64_t seed, int runs, SpanLog* spans) {
  FuzzLayer layer;
  std::vector<uint64_t> hashes;
  for (int jobs : {2, 1}) {
    const double cpu_start = CpuSeconds();
    double wall_s = 0;
    for (size_t i = 0; i < bench.size(); ++i) {
      ctcore::SystemReport report = bench.report(i);
      ctfuzz::FuzzPhaseOptions options;
      options.runs = runs;
      options.seed = seed;
      options.jobs = jobs;
      Timer timer(spans, "fuzz.phase");
      const ctfuzz::FuzzResult result = ctfuzz::RunFuzzPhase(bench.system(i), &report, options);
      wall_s += timer.Seconds();
      if (jobs == 2) {
        hashes.push_back(result.trace_hash);
        layer.runs += result.runs;
        layer.corpus += static_cast<int>(result.corpus.size());
        layer.new_pairs += static_cast<int>(result.new_keys.size());
        layer.bug_runs += result.bug_runs;
        layer.new_coverage_runs += result.new_coverage_runs;
        continue;
      }
      if (result.trace_hash != hashes[i]) {
        std::fprintf(stderr, "DECOMPOSITION MISMATCH: %s fuzz trace hash %s at jobs=1, %s at "
                     "jobs=2\n", kSystemKeys[i], Hex(result.trace_hash).c_str(),
                     Hex(hashes[i]).c_str());
        layer.deterministic = false;
      }
    }
    if (jobs == 2) {
      layer.j2_s = wall_s;
      layer.cpu_util = (CpuSeconds() - cpu_start) / (wall_s * 2);
    } else {
      layer.j1_s = wall_s;
    }
  }
  return layer;
}

// ---------------------------------------------------------------------------
// Runs and output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
  bool setup_only = false;
  bool smoke = false;
  bool inject_mismatch = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (arg == "--spans-out" && has_value) {
      args->spans_out = argv[++i];
    } else if (arg == "--setup-only") {
      args->setup_only = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--inject-mismatch") {
      args->inject_mismatch = true;
    } else {
      return false;
    }
  }
  return args->trace == 0 || args->trace == 1;
}

// Moves the calling (only) thread to the next CPU it may run on, in turn.
// The reference host's vCPUs slow down independently of each other, so
// passes spread over all of them meet an unloaded one far more often than
// passes left on one (README.md, "Host noise").
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Runs one pass and checks its outputs; counts the attempt and any failure.
struct PassCounter {
  int attempted = 0;
  int failed = 0;

  void Run(OutputCheck& check, const std::string& what, const std::function<PassOutput()>& pass) {
    ++attempted;
    try {
      if (check.Check(what, pass())) {
        return;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "PASS FAILED %s: %s\n", what.c_str(), error.what());
    }
    ++failed;
  }
};

// --trace 0: timed untraced passes; prints the end-to-end metrics.
int RunTimed(const Args& args, Bench& bench) {
  const WorkloadConfig& config = bench.config();
  OutputCheck check(config, args.seed, args.inject_mismatch);
  PassCounter counter;
  CpuRotation rotation;
  bench.BuildModels(nullptr);
  for (int i = 0; i < config.warmup_passes; ++i) {
    rotation.Next();
    counter.Run(check, "warm-up pass " + std::to_string(i + 1),
                [&] { return bench.Pass(nullptr, nullptr, nullptr, false); });
  }
  const double setup_s = Since(kProcessStart);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return counter.failed == 0 ? 0 : 1;
  }

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  const Clock::time_point start = Clock::now();
  do {
    rotation.Next();
    const double cpu_start = CpuSeconds();
    const Clock::time_point pass_start = Clock::now();
    counter.Run(check, "pass " + std::to_string(wall_s.size() + 1),
                [&] { return bench.Pass(nullptr, nullptr, nullptr, false); });
    wall_s.push_back(Since(pass_start));
    cpu_s.push_back(CpuSeconds() - cpu_start);
  } while (Since(start) < args.seconds);

  std::printf("%s: %zu timed passes, %d output checks, %d mismatched; expected outputs:\n",
              config.name.c_str(), wall_s.size(), check.compared(), check.mismatched());
  check.PrintExpected();
  for (const auto& [name, values] : {std::pair{"pass_s", wall_s}, std::pair{"cpu_s", cpu_s}}) {
    const Tail tail = TailOf(values);
    std::printf("%s over %zu passes: min %.6f p10 %.6f p25 %.6f p50 %.6f p%.1f %.6f\n", name,
                values.size(), Quantile(values, 0), Quantile(values, 0.10),
                Quantile(values, 0.25), Median(values), tail.pct, tail.value);
  }
  // pass_s and cpu_s are the fastest pass, not the median: each vCPU of the
  // reference host alternates between full speed and about 1.5x slower every
  // few seconds, often for most of a run, so a run's median (and even its
  // 10th percentile) flips between the two (README.md, "Host noise").
  PrintResult(counter.failed == 0, counter.attempted, counter.failed,
              {{"pass_s", Quantile(wall_s, 0), "s"},
               {"cpu_s", Quantile(cpu_s, 0), "s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

double Frac(double with, double without) { return without > 0 ? with / without - 1 : 0; }

// --trace 1: untraced, traced and observed passes interleaved for --seconds,
// then the isolation probes; prints the per-layer metrics.
int RunTraced(const Args& args, Bench& bench) {
  const WorkloadConfig& config = bench.config();
  SpanLog spans;
  OutputCheck check(config, args.seed, args.inject_mismatch);
  PassCounter counter;
  LayerStats layers;
  bool decomposition_ok = true;
  const double model_build_s = bench.BuildModels(&spans);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> observed_s;
  std::vector<std::vector<double>> job_s(bench.size());
  int pass = 0;
  const Clock::time_point start = Clock::now();
  do {
    std::vector<double> shares;
    PassOutput reference;
    Clock::time_point pass_start = Clock::now();
    counter.Run(check, "untraced pass " + std::to_string(++pass), [&] {
      reference = bench.Pass(nullptr, nullptr, &shares, false);
      return reference;
    });
    untraced_s.push_back(Since(pass_start));
    for (size_t i = 0; i < shares.size(); ++i) {
      job_s[i].push_back(shares[i]);
    }

    spans.set_pass(++pass);
    pass_start = Clock::now();
    counter.Run(check, "traced pass " + std::to_string(pass), [&] {
      PassOutput outputs = bench.Pass(&spans, &layers, nullptr, false);
      if (outputs != reference) {
        std::fprintf(stderr, "DECOMPOSITION MISMATCH: the public steps did not reproduce "
                     "CrashTunerDriver::Run's bug ids and trace hashes\n");
        decomposition_ok = false;
      }
      return outputs;
    });
    traced_s.push_back(Since(pass_start));
    spans.set_pass(0);

    pass_start = Clock::now();
    counter.Run(check, "observed pass " + std::to_string(++pass),
                [&] { return bench.Pass(nullptr, nullptr, nullptr, true); });
    observed_s.push_back(Since(pass_start));
  } while (Since(start) < args.seconds);

  // Simulator, tracer and agent probes: fault-free runs at the workload's
  // scale. The three variants take turns going first, for at least 3 rounds
  // and 0.3 s. Like pass_s, timings and overheads compare fastest samples.
  std::vector<Metric> sim_metrics;
  double plain_total = 0, profile_total = 0, agents_total = 0;
  std::vector<double> oracle_us = layers.oracle_us;
  const int min_rounds = args.smoke ? 1 : 3;
  for (size_t i = 0; i < bench.size(); ++i) {
    std::map<ProbeVariant, std::vector<double>> totals;
    std::vector<double> drain_s;
    ProbeResult plain;
    std::vector<ProbeVariant> order = {ProbeVariant::kPlain, ProbeVariant::kProfile,
                                       ProbeVariant::kAgents};
    const Clock::time_point probe_start = Clock::now();
    for (int round = 0;
         round < 100 && (round < min_rounds || Since(probe_start) < (args.smoke ? 0 : 0.3));
         ++round) {
      std::rotate(order.begin(), order.begin() + 1, order.end());
      for (ProbeVariant variant : order) {
        const ProbeResult result =
            ProbeRun(bench.system(i), bench.report(i), bench.filter(i), args.seed, variant,
                     &spans);
        totals[variant].push_back(result.total_s);
        layers.new_run_ms.push_back(result.new_run_s * 1e3);
        oracle_us.push_back(result.oracle_us);
        if (variant == ProbeVariant::kPlain) {
          plain = result;
          drain_s.push_back(result.drain_s);
        }
      }
    }
    plain_total += Quantile(totals[ProbeVariant::kPlain], 0);
    profile_total += Quantile(totals[ProbeVariant::kProfile], 0);
    agents_total += Quantile(totals[ProbeVariant::kAgents], 0);
    const std::string key = kSystemKeys[i];
    const double events = static_cast<double>(plain.events);
    sim_metrics.push_back({"sim.events." + key, events, "count"});
    sim_metrics.push_back(
        {"sim.ns_per_event." + key, events > 0 ? Quantile(drain_s, 0) * 1e9 / events : 0, "ns"});
    sim_metrics.push_back({"sim.messages." + key, static_cast<double>(plain.messages), "count"});
    sim_metrics.push_back(
        {"sim.peak_pending." + key, static_cast<double>(plain.peak_pending), "count"});
  }

  std::vector<double> loop_ns;
  for (int i = 0; i < 5; ++i) {
    loop_ns.push_back(LoopNsPerEvent(args.smoke ? 20000 : 400000));
  }
  const double map_us = MapMicros();
  const double gen_us = GenMicros(bench, args.seed);

  // The fuzz layer runs on scale-1 pipeline reports whatever the workload.
  WorkloadConfig paper;
  MakeConfig("paper", args.smoke, &paper);
  Bench fuzz_bench(paper, args.seed);
  fuzz_bench.Pass(nullptr, nullptr, nullptr, false);
  const FuzzLayer fuzz = MeasureFuzzLayer(fuzz_bench, args.seed, args.smoke ? 8 : 48, &spans);
  decomposition_ok = decomposition_ok && fuzz.deterministic;

  // Per-pass layer totals: the median over the traced passes.
  auto median_of = [&layers](auto field) {
    std::vector<double> values;
    for (const LayerSample& sample : layers.passes) {
      values.push_back(static_cast<double>(sample.*field));
    }
    return Median(values);
  };
  const Tail inject_tail = TailOf(layers.inject_ms);
  const Tail new_run_tail = TailOf(layers.new_run_ms);
  const double inject_runs = median_of(&LayerSample::inject_runs);
  const double bug_runs = median_of(&LayerSample::bug_runs);

  std::vector<Metric> metrics = {
      {"model.build_s", model_build_s, "s"},
      {"analysis.log_s", median_of(&LayerSample::log_s), "s"},
      {"analysis.metainfo_s", median_of(&LayerSample::metainfo_s), "s"},
      {"analysis.crash_points_s", median_of(&LayerSample::crash_points_s), "s"},
      {"core.profile_s", median_of(&LayerSample::profile_s), "s"},
      {"core.profile_runs", median_of(&LayerSample::profile_runs), "count"},
      {"core.inject_s", median_of(&LayerSample::inject_s), "s"},
      {"core.inject_ms.p50", Median(layers.inject_ms), "ms"},
      {"core.inject_ms.tail", inject_tail.value, "ms"},
      {"core.inject_ms.tail_pct", inject_tail.pct, "%"},
      {"core.inject_ms.samples", static_cast<double>(layers.inject_ms.size()), "count"},
      {"core.inject_runs", inject_runs, "count"},
      {"core.injected", median_of(&LayerSample::injected), "count"},
      {"core.bug_runs", bug_runs, "count"},
      {"core.bug_frac", inject_runs > 0 ? bug_runs / inject_runs : 0, "frac"},
      {"core.oracle_us", Median(oracle_us), "us"},
      {"core.new_run_ms.p50", Median(layers.new_run_ms), "ms"},
      {"core.new_run_ms.tail", new_run_tail.value, "ms"},
      {"core.new_run_ms.tail_pct", new_run_tail.pct, "%"},
      {"core.new_run_ms.samples", static_cast<double>(layers.new_run_ms.size()), "count"},
      {"core.map_us", map_us, "us"},
      {"sim.loop_ns_per_event", Median(loop_ns), "ns"},
  };
  metrics.insert(metrics.end(), sim_metrics.begin(), sim_metrics.end());
  metrics.insert(
      metrics.end(),
      {
          {"runtime.profile_overhead_frac", Frac(profile_total, plain_total), "frac"},
          {"logging.agent_overhead_frac", Frac(agents_total, plain_total), "frac"},
          {"fuzz.gen_us", gen_us, "us"},
          {"fuzz.speedup_j2", fuzz.j2_s > 0 ? fuzz.j1_s / fuzz.j2_s : 0, "x"},
          {"fuzz.cpu_util", fuzz.cpu_util, "frac"},
          {"fuzz.runs", static_cast<double>(fuzz.runs), "count"},
          {"fuzz.corpus", static_cast<double>(fuzz.corpus), "count"},
          {"fuzz.new_pairs", static_cast<double>(fuzz.new_pairs), "count"},
          {"fuzz.bug_runs", static_cast<double>(fuzz.bug_runs), "count"},
          {"fuzz.new_coverage_frac",
           fuzz.runs > 0 ? static_cast<double>(fuzz.new_coverage_runs) / fuzz.runs : 0, "frac"},
          {"obs.overhead_frac", Frac(Quantile(observed_s, 0), Quantile(untraced_s, 0)), "frac"},
      });
  for (size_t i = 0; i < bench.size(); ++i) {
    metrics.push_back({std::string("job_s.") + kSystemKeys[i], Median(job_s[i]), "s"});
  }
  metrics.push_back(
      {"trace.overhead_frac", Frac(Quantile(traced_s, 0), Quantile(untraced_s, 0)), "frac"});

  std::printf("%s traced run: %d passes, %d output checks, %d mismatched, decomposition %s; "
              "expected outputs:\n",
              config.name.c_str(), counter.attempted, check.compared(), check.mismatched(),
              decomposition_ok ? "ok" : "MISMATCH");
  check.PrintExpected();
  std::printf("%-22s %7s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, summary] : spans.Summarize()) {
    std::printf("%-22s %7d %12.6f %12.6f\n", name.c_str(), summary.calls, summary.total_s,
                summary.self_s);
  }
  if (!args.spans_out.empty() && !spans.Write(args.spans_out, config.name, args.seed)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_out.c_str());
    return 1;
  }
  PrintResult(counter.failed == 0 && decomposition_ok, counter.attempted, counter.failed,
              metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadConfig config;
  if (!ParseArgs(argc, argv, &args) || !MakeConfig(args.workload, args.smoke, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper|scale8 [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans-out FILE] [--setup-only] [--smoke] "
                 "[--inject-mismatch]\n");
    return 2;
  }
  try {
    Bench bench(config, args.seed);
    return args.trace == 0 ? RunTimed(args, bench) : RunTraced(args, bench);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
