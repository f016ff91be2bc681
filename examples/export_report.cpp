// Export example: run the pipeline on every system and write per-system
// markdown and JSON reports plus the Fig. 1 meta-info graph in Graphviz DOT.
//
//   $ ./build/examples/export_report /tmp/crashtuner-reports
//
// Flags:
//   --static-only              enumerate contexts statically, no profiling;
//   --jobs N                   campaign worker threads (0 = hardware);
//   --scale N                  deployment scale multiplier: every system's
//                              replicated-role count and workload size grow
//                              N-fold (1 = the paper's deployment);
//   --fuzz N                   after the pipeline, run N independently
//                              drawn workload-fuzzing runs per system
//                              (reports gain a "fuzz" section);
//   --dossier-dir DIR          write one crashtuner-dossier-v1 JSON per
//                              failing run, built from the report, as
//                              DIR/<stem>-slot<N>.json (src/obs/dossier.h).
//
// File names use the system's FileStem ("Hadoop2/Yarn" -> "Hadoop2_Yarn").
//
// Every report, DOT and dossier write is checked: a path that cannot be
// written is named on stderr and the exit status is 1.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "src/analysis/log_analysis.h"
#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/fuzz/fuzz_phase.h"
#include "src/obs/dossier.h"
#include "src/obs/json.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

bool ReportWriteFailure(const std::string& path) {
  std::fprintf(stderr, "export_report: cannot write %s\n", path.c_str());
  return false;
}

// Runs the pipeline on one system and writes its files. Returns false if
// any write failed.
bool Export(const ctcore::SystemUnderTest& system, const ctcore::DriverOptions& options,
            const std::filesystem::path& directory, int fuzz_runs,
            const std::filesystem::path& dossier_dir) {
  ctcore::SystemReport report = ctcore::CrashTunerDriver().Run(system, options);

  const std::string stem = ctobs::FileStem(report.system);
  bool ok = true;
  std::string failed_path;
  if (!dossier_dir.empty() &&
      !ctobs::WriteDossiers(
          dossier_dir.string(), report.system,
          ctcore::ReportDossiers(system, report, options.seed + ctcore::kCampaignSeedOffset),
          &failed_path)) {
    ok = ReportWriteFailure(failed_path);
  }
  if (fuzz_runs > 0) {
    ctfuzz::FuzzPhaseOptions fuzz_options;
    fuzz_options.runs = fuzz_runs;
    fuzz_options.seed = options.seed;
    fuzz_options.jobs = options.jobs;
    ctfuzz::RunFuzzPhase(system, &report, fuzz_options);
  }
  const std::pair<const char*, std::string> files[] = {
      {".md", ctcore::ReportToMarkdown(report)},
      {".json", ctcore::ReportToJson(report)},
      {".dot", ctanalysis::MetaInfoGraphToDot(report.log_result.graph)},
  };
  for (const auto& [extension, text] : files) {
    const std::string path = (directory / (stem + extension)).string();
    if (!ctobs::WriteTextFile(path, text)) {
      ok = ReportWriteFailure(path);
    }
  }
  if (!ok) {
    return false;
  }
  std::printf("%-14s -> %s.{md,json,dot}  (%zu bugs", report.system.c_str(),
              (directory / stem).c_str(), report.bugs.size());
  if (report.fuzz.active) {
    std::printf(", fuzz: %d runs, corpus %d, %d new pair(s)", report.fuzz.runs,
                report.fuzz.corpus_size, report.fuzz.new_pairs);
  }
  std::printf(")\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path directory = "/tmp/crashtuner-reports";
  ctcore::DriverOptions options;
  int scale = 1;
  int fuzz_runs = 0;
  std::filesystem::path dossier_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--static-only") {
      options.context_mode = ctcore::ContextMode::kStaticOnly;
    } else if (arg == "--jobs" && i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (arg == "--fuzz" && i + 1 < argc) {
      fuzz_runs = std::atoi(argv[++i]);
      if (fuzz_runs < 1) {
        std::fprintf(stderr, "--fuzz must be >= 1\n");
        return 2;
      }
    } else if (arg == "--dossier-dir" && i + 1 < argc) {
      dossier_dir = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
      if (scale < 1) {
        std::fprintf(stderr, "--scale must be >= 1\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: export_report [DIR] [--static-only] [--jobs N] [--scale N] "
                   "[--fuzz N] [--dossier-dir DIR]\n");
      return 2;
    } else {
      directory = arg;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    ReportWriteFailure(directory.string());
    return 1;
  }

  ctyarn::YarnSystem yarn;
  cthdfs::HdfsSystem hdfs;
  cthbase::HBaseSystem hbase;
  ctzk::ZkSystem zk;
  ctcass::CassSystem cass;
  bool ok = true;
  for (ctcore::SystemUnderTest* system :
       std::initializer_list<ctcore::SystemUnderTest*>{&yarn, &hdfs, &hbase, &zk, &cass}) {
    system->set_scale(scale);
    ok = Export(*system, options, directory, fuzz_runs, dossier_dir) && ok;
  }
  return ok ? 0 : 1;
}
