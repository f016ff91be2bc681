// Shared helpers for the experiment benches: cached per-system CrashTuner
// reports (each bench binary reruns the pipeline it needs) and tabular
// printing that mirrors the paper's table layout.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/crashtuner.h"
#include "src/core/system_under_test.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/dossier.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace ctbench {

// The five systems of Table 4, in paper order.
inline std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

// Whether a bench should fail (not merely report) a missed parallel-speedup
// or overhead bar. Auto-detected from hardware concurrency — a 1-core CI
// runner cannot demonstrate a 2x jobs=4 speedup, so the bar is advisory
// there — with a CRASHTUNER_ENFORCE_SPEEDUP env override: "1" forces the
// bar on (the multi-core CI lane sets this so the bar cannot silently relax
// if hardware detection misfires), "0" forces it off (local debugging on a
// loaded laptop).
inline bool EnforceSpeedupBar(int hardware_threads) {
  const char* env = std::getenv("CRASHTUNER_ENFORCE_SPEEDUP");
  if (env != nullptr && env[0] == '1') {
    return true;
  }
  if (env != nullptr && env[0] == '0') {
    return false;
  }
  return hardware_threads >= 4;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Flags shared by the bench binaries: `--jobs N` (campaign worker threads,
// 0 = hardware concurrency), `--speedup` (time the campaign sequential vs
// parallel), `--json FILE` (machine-readable results for CI),
// `--metrics-out FILE` (campaign metrics snapshot, see src/obs/snapshot.h),
// `--trace-out FILE` (Chrome-trace export for Perfetto) and
// `--dossier-dir DIR` (one crashtuner-dossier-v1 JSON per failing run, see
// src/obs/dossier.h). The observability flags also accept `--flag=value`
// form. Anything else stays positional for the bench's own arguments.
struct BenchFlags {
  int jobs = 1;
  bool speedup = false;
  std::string json_path;
  std::string metrics_out;
  std::string trace_out;
  std::string dossier_dir;
  std::vector<std::string> positional;
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  auto starts_with = [](const std::string& text, const std::string& prefix) {
    return text.compare(0, prefix.size(), prefix) == 0;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      flags.jobs = std::atoi(argv[++i]);
    } else if (arg == "--speedup") {
      flags.speedup = true;
    } else if (arg == "--json" && i + 1 < argc) {
      flags.json_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      flags.metrics_out = argv[++i];
    } else if (starts_with(arg, "--metrics-out=")) {
      flags.metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else if (arg == "--trace-out" && i + 1 < argc) {
      flags.trace_out = argv[++i];
    } else if (starts_with(arg, "--trace-out=")) {
      flags.trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--dossier-dir" && i + 1 < argc) {
      flags.dossier_dir = argv[++i];
    } else if (starts_with(arg, "--dossier-dir=")) {
      flags.dossier_dir = arg.substr(std::string("--dossier-dir=").size());
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

// Bench-side observability plumbing for --metrics-out / --trace-out. A bench
// asks for one observer per campaign it runs (ObserverFor returns null when
// neither flag was given, and DriverOptions::observer accepts null, so
// unobserved invocations cost nothing), then calls Write() once at the end
// to emit the snapshot and/or Chrome trace covering every campaign.
class BenchObservation {
 public:
  explicit BenchObservation(const BenchFlags& flags)
      : metrics_out_(flags.metrics_out), trace_out_(flags.trace_out),
        dossier_dir_(flags.dossier_dir) {}

  bool enabled() const {
    return !metrics_out_.empty() || !trace_out_.empty() || !dossier_dir_.empty();
  }

  // A fresh observer labeled `name` (duplicates get "#2", "#3", ... so
  // benches that run the same system twice keep both campaigns). Null when
  // observability is off.
  ctobs::CampaignObserver* ObserverFor(const std::string& name) {
    if (!enabled()) {
      return nullptr;
    }
    int uses = ++name_uses_[name];
    std::string label = uses == 1 ? name : name + "#" + std::to_string(uses);
    observers_.emplace_back(label, std::make_unique<ctobs::CampaignObserver>());
    return observers_.back().second.get();
  }

  // Emits the requested files. Returns false if any write failed.
  bool Write() const {
    bool ok = true;
    if (!metrics_out_.empty()) {
      ctobs::MetricsSnapshot snapshot;
      for (const auto& [label, observer] : observers_) {
        ctobs::SystemMetrics system = observer->Finalize();
        system.system = label;  // the bench's label, not the driver's
        snapshot.systems.push_back(std::move(system));
      }
      ok = snapshot.WriteFile(metrics_out_) && ok;
    }
    if (!trace_out_.empty()) {
      ctobs::ChromeTraceWriter writer;
      int pid = 1;
      for (const auto& [label, observer] : observers_) {
        observer->AppendChromeTrace(&writer, pid++, label);
      }
      ok = writer.WriteFile(trace_out_) && ok;
    }
    if (!dossier_dir_.empty()) {
      for (const auto& [label, observer] : observers_) {
        ok = ctobs::WriteDossiers(dossier_dir_, label, observer->dossiers()) && ok;
      }
    }
    return ok;
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string dossier_dir_;
  std::map<std::string, int> name_uses_;
  std::vector<std::pair<std::string, std::unique_ptr<ctobs::CampaignObserver>>> observers_;
};

}  // namespace ctbench

#endif  // BENCH_BENCH_UTIL_H_
