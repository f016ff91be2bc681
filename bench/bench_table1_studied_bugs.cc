// Table 1: the studied timing-sensitive crash-recovery bugs, grouped by
// meta-info, plus the study's headline counts (§2) and this repository's
// reproduction status (legacy-mode mini systems).
#include <map>

#include "bench/bench_util.h"
#include "src/core/crashtuner.h"
#include "src/study/bug_study.h"
#include "src/systems/yarn/yarn_system.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Table 1 — studied timing-sensitive bugs by meta-info");

  std::map<std::string, std::map<std::string, std::vector<std::string>>> grouped;
  for (const auto& bug : ctstudy::StudiedBugs()) {
    if (bug.scenario == ctstudy::Scenario::kNotTimingSensitive) {
      continue;
    }
    grouped[bug.system][bug.metainfo].push_back(bug.id);
  }
  for (const char* system : {"Hadoop2", "HDFS", "HBase", "ZooKeeper"}) {
    std::printf("%s\n", system);
    for (const auto& [metainfo, ids] : grouped[system]) {
      std::printf("  %-18s", metainfo.c_str());
      for (const auto& id : ids) {
        std::printf(" %s", id.c_str());
      }
      std::printf("\n");
    }
  }

  ctbench::PrintRule();
  ctstudy::StudySummary summary = ctstudy::Summarize();
  std::printf("paper: 116 studied -> 66 single-crash -> 52 timing-sensitive\n");
  std::printf("data : %d single-crash, %d timing-sensitive (%d pre-read / %d post-write), "
              "%d non-timing\n",
              summary.total, summary.timing_sensitive, summary.pre_read, summary.post_write,
              summary.non_timing_sensitive);
  std::printf("paper: 59/66 reproduced; data: %d/%d flagged reproduced-by-paper\n",
              summary.reproduced_by_paper, summary.total);

  ctbench::PrintRule();
  std::printf("Reproduction on this repository's legacy mini-YARN build (§4.1.1 sample):\n");
  ctyarn::YarnSystem legacy(ctyarn::YarnMode::kLegacy);
  ctcore::DriverOptions options;
  options.observer = observation.ObserverFor("yarn-legacy");
  ctcore::SystemReport report = ctcore::CrashTunerDriver().Run(legacy, options);
  for (const char* id : {"YARN-5918", "MR-3858"}) {
    bool found = false;
    for (const auto& bug : report.bugs) {
      found = found || bug.bug_id == id;
    }
    std::printf("  %-10s %s\n", id, found ? "REPRODUCED" : "not reproduced");
  }
  std::printf("  (the remaining Table 1 entries are carried as study data; the seven the\n"
              "   paper could not reproduce are annotated with its reasons)\n");

  return observation.Write() ? 0 : 1;
}
