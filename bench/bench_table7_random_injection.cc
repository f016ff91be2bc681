// Table 7: random fault injection over all five systems, in both fault
// modes. The paper runs 3000 random-crash trials per system; the bench
// default is smaller for wall-clock sanity and scalable via the first
// positional argument. The shape to check: random needs orders of magnitude
// more runs per bug than CrashTuner, and only finds the bugs with windows
// that are seconds wide (node-startup windows — YARN-9194-like, HBASE-21740,
// MR-7178).
//
// The network-random column is the same comparison for the seeded message
// races: the guided driver (InjectionMode::kNetworkFault) arms a partition
// in each meta-info window and reproduces every declared race in one pass
// per dynamic point, while blind partition trials have to get victim, cut
// time, and window length right at once. `--json FILE` writes the comparison
// as BenchRecords (BENCH_network_faults.json in CI).
#include <chrono>
#include <cstdlib>

#include "bench/bench_util.h"

namespace {

struct NetworkRow {
  std::string system;
  int guided_injections = 0;
  int guided_race_hits = 0;  // injections exposing the declared race
  bool guided_race_found = false;
  int random_trials = 0;
  int random_failing = 0;
  int random_bugs = 0;        // dedup'd triaged issues
  int first_race_trial = -1;  // -1: no random trial reproduced the race
  double wall_seconds = 0;
};

// Index (in trial order) of the first random trial whose failure triages to
// a message-race known bug; -1 when none does.
int FirstRaceTrial(const ctcore::SystemUnderTest& system,
                   const ctcore::BaselineReport& report) {
  for (const auto& trial : report.failing_trials) {
    for (const auto& bug : ctcore::TriageBaselineBugs(system, {trial})) {
      if (bug.scenario == "message-race") {
        return trial.trial_index;
      }
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  int trials = flags.positional.empty() ? 300 : std::atoi(flags.positional[0].c_str());

  ctbench::PrintHeader("Table 7 — random crash injection (" + std::to_string(trials) +
                       " trials/system; paper used 3000)");
  std::printf("%-14s %10s %12s %10s %s\n", "System", "Virt(h)", "FailingRuns", "Bugs", "Ids");
  ctbench::PrintRule();

  int total_bugs = 0;
  double total_hours = 0;
  for (const auto& system : ctbench::AllSystems()) {
    ctcore::RandomCrashInjector injector;
    ctcore::BaselineReport report = injector.Run(*system, trials, 20190427, flags.jobs);
    total_hours += report.virtual_hours;
    total_bugs += static_cast<int>(report.bugs.size());
    std::printf("%-14s %10.2f %12zu %10zu ", system->name().c_str(), report.virtual_hours,
                report.failing_trials.size(), report.bugs.size());
    for (const auto& bug : report.bugs) {
      std::printf("%s ", bug.bug_id.c_str());
    }
    std::printf("\n");
  }
  ctbench::PrintRule();
  std::printf("measured: %d distinct issues in %.1f virtual hours across %d trials/system\n",
              total_bugs, total_hours, trials);
  std::printf("paper   : 3 bugs (YARN-9194, HBASE-21740, MR-7178) in 3000 trials/system —\n"
              "          one bug per 17.03 h vs CrashTuner's one per 1.70 h\n");

  ctbench::PrintHeader("Network faults — guided windows vs random partitions (" +
                       std::to_string(trials) + " random trials/system)");
  std::printf("%-14s %8s %9s %12s %10s %14s\n", "System", "Guided", "RaceHits", "RandFailing",
              "RandBugs", "FirstRaceTrial");
  ctbench::PrintRule();

  ctbench::BenchRecords records;
  records.Add("trials", "count", trials);
  double wall_total = 0;
  for (const auto& system : ctbench::AllSystems()) {
    auto wall_start = std::chrono::steady_clock::now();
    NetworkRow row;
    row.system = system->name();

    ctcore::DriverOptions options;
    options.injection_mode = ctcore::InjectionMode::kNetworkFault;
    options.jobs = flags.jobs;
    options.observer = observation.ObserverFor(system->name() + "/netfault");
    ctcore::SystemReport guided = ctcore::CrashTunerDriver().Run(*system, options);
    row.guided_injections = static_cast<int>(guided.injections.size());
    for (const auto& bug : guided.bugs) {
      if (bug.scenario == "message-race") {
        row.guided_race_found = true;
        row.guided_race_hits += static_cast<int>(bug.exposing_points.size());
      }
    }

    ctcore::NetworkRandomInjector injector;
    ctcore::BaselineReport random = injector.Run(*system, trials, 20190427, flags.jobs);
    row.random_trials = random.trials;
    row.random_failing = static_cast<int>(random.failing_trials.size());
    row.random_bugs = static_cast<int>(random.bugs.size());
    row.first_race_trial = FirstRaceTrial(*system, random);
    row.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    wall_total += row.wall_seconds;

    std::printf("%-14s %8d %9d %12d %10d %14d\n", row.system.c_str(), row.guided_injections,
                row.guided_race_hits, row.random_failing, row.random_bugs, row.first_race_trial);
    const std::string prefix = row.system + ".";
    records.Add(prefix + "guided_injections", "count", row.guided_injections);
    records.Add(prefix + "guided_race_found", "bool", row.guided_race_found);
    records.Add(prefix + "guided_race_hits", "count", row.guided_race_hits);
    records.Add(prefix + "random_trials", "count", row.random_trials);
    records.Add(prefix + "random_failing", "count", row.random_failing);
    records.Add(prefix + "random_dedup_bugs", "count", row.random_bugs);
    records.Add(prefix + "random_first_race_trial", "index", row.first_race_trial);
    records.Add(prefix + "wall_s", "s", row.wall_seconds);
  }
  ctbench::PrintRule();
  std::printf("guided mode reproduces each declared race within one campaign "
              "(<= dynamic-point count);\nrandom partitions need the victim, cut time, and "
              "window drawn right at once (-1: never in %d trials)\n",
              trials);

  records.Add("wall_s", "s", wall_total);

  int status = records.Finish(flags.json_path);
  status += observation.Write() ? 0 : 1;
  return status;
}
