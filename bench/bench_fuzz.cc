// Fuzz smoke: a short workload-fuzzing campaign on every system.
//
// For each of the five minis the full pipeline runs once, then the fuzz
// phase runs `budget` independently drawn grammar-op workloads at jobs=1 and
// jobs=4. The bench fails (nonzero exit) if any system discovers no
// ⟨point, call-string⟩ pair beyond the fixed script, if the two jobs levels
// disagree on corpus or trace hash (the determinism contract
// fuzz_property_test pins in CI's stage 2 — here cross-checked against a live
// campaign), or — on machines with >= 4 hardware threads — if jobs=4 is not
// >= 2x faster overall. Coverage is also measured against its static bound:
// the static-only driver's enumerated ⟨point, call string⟩ pairs, printed as
// coverage N/M. Each row ends with the known bugs TriageBugs matched among
// the bug runs. --json FILE writes the results as BenchRecords.
//
// Usage: bench_fuzz [budget] [--jobs N] [--json FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/core/campaign.h"
#include "src/fuzz/fuzz_phase.h"

namespace {

struct SystemRow {
  std::string name;
  int runs = 0;
  int corpus_size = 0;
  int baseline_pairs = 0;
  int new_pairs = 0;
  int coverage_pairs = 0;
  int static_pairs = 0;
  int bug_runs = 0;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  bool deterministic = true;

  double runs_per_sec() const { return serial_seconds > 0 ? runs / serial_seconds : 0; }
};

double Wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  int budget = 48;
  if (!flags.positional.empty()) {
    budget = std::atoi(flags.positional.front().c_str());
    if (budget < 1) {
      std::fprintf(stderr, "usage: bench_fuzz [budget] [--jobs N] [--json FILE]\n");
      return 2;
    }
  }

  ctbench::PrintHeader("Workload fuzzing: " + std::to_string(budget) + "-run smoke per system");
  std::printf("%-22s %6s %8s %10s %10s %10s %8s %10s %10s  %s\n", "system", "runs", "corpus",
              "baseline", "new_pairs", "coverage", "bugs", "wall_s(1)", "runs/sec",
              "known bugs");

  auto systems = ctbench::AllSystems();
  ctbench::BenchRecords records;
  double serial_total = 0, parallel_total = 0;
  for (const auto& system : systems) {
    SystemRow row;
    row.name = system->name();

    ctcore::SystemReport serial_report = ctcore::CrashTunerDriver().Run(*system);
    ctcore::SystemReport parallel_report = serial_report;
    ctcore::DriverOptions static_options;
    static_options.context_mode = ctcore::ContextMode::kStaticOnly;
    row.static_pairs = ctcore::CrashTunerDriver().Run(*system, static_options).static_contexts;

    ctfuzz::FuzzPhaseOptions serial_options;
    serial_options.runs = budget;
    serial_options.jobs = 1;
    const auto serial_start = std::chrono::steady_clock::now();
    ctfuzz::FuzzResult serial = ctfuzz::RunFuzzPhase(*system, &serial_report, serial_options);
    row.serial_seconds = Wall(serial_start);

    ctfuzz::FuzzPhaseOptions parallel_options = serial_options;
    parallel_options.jobs = 4;
    const auto parallel_start = std::chrono::steady_clock::now();
    ctfuzz::FuzzResult parallel =
        ctfuzz::RunFuzzPhase(*system, &parallel_report, parallel_options);
    row.parallel_seconds = Wall(parallel_start);

    row.runs = serial.runs;
    row.corpus_size = static_cast<int>(serial.corpus.size());
    row.baseline_pairs = serial_report.fuzz.baseline_pairs;
    row.new_pairs = static_cast<int>(serial.new_keys.size());
    row.coverage_pairs = static_cast<int>(serial.coverage.size());
    row.bug_runs = serial.bug_runs;
    row.deterministic = serial.trace_hash == parallel.trace_hash &&
                        serial.corpus == parallel.corpus && serial.new_keys == parallel.new_keys;
    serial_total += row.serial_seconds;
    parallel_total += row.parallel_seconds;

    const std::string coverage =
        std::to_string(row.coverage_pairs) + "/" + std::to_string(row.static_pairs);
    const std::string bug_ids =
        serial.bug_ids.empty() ? "-" : ctcommon::Join(serial.bug_ids, ",");
    std::printf("%-22s %6d %8d %10d %10d %10s %8d %10.3f %10.1f  %s\n", row.name.c_str(),
                row.runs, row.corpus_size, row.baseline_pairs, row.new_pairs, coverage.c_str(),
                row.bug_runs, row.serial_seconds, row.runs_per_sec(), bug_ids.c_str());
    const std::string prefix = row.name + ".";
    records.Add(prefix + "runs", "count", row.runs);
    records.Add(prefix + "corpus", "count", row.corpus_size);
    records.Add(prefix + "baseline_pairs", "count", row.baseline_pairs);
    records.AddBar(prefix + "new_pairs", "count", row.new_pairs, ">= 1", row.new_pairs >= 1);
    records.Add(prefix + "coverage_pairs", "count", row.coverage_pairs);
    records.Add(prefix + "static_pairs", "count", row.static_pairs);
    records.Add(prefix + "bug_runs", "count", row.bug_runs);
    records.Add(prefix + "wall_s.jobs1", "s", row.serial_seconds);
    records.Add(prefix + "wall_s.jobs4", "s", row.parallel_seconds);
    records.Add(prefix + "runs_per_s", "runs/s", row.runs_per_sec());
    // Whether jobs=1 and jobs=4 agree on corpus, new pairs and trace hash.
    records.AddBar(prefix + "deterministic", "bool", row.deterministic, "== 1",
                   row.deterministic);
  }

  ctbench::PrintRule();
  const double speedup = parallel_total > 0 ? serial_total / parallel_total : 0;
  const int hardware_threads = ctcore::ResolveJobs(0);
  const bool enforce_speedup = ctbench::EnforceSpeedupBar(hardware_threads);
  std::printf("jobs=4 speedup over all systems: %.2fx  (bar: >= 2x, %s on %d hardware "
              "thread(s))\n",
              speedup, enforce_speedup ? "enforced" : "not enforced", hardware_threads);

  records.AddBar("jobs4_speedup", "x", speedup, ">= 2", speedup >= 2.0, enforce_speedup);
  records.Add("hardware_threads", "count", hardware_threads);
  return records.Finish(flags.json_path);
}
