// Shared helpers for the experiment benches: the five systems, tabular
// printing that mirrors the paper's table layout, the shared flags, the
// observability outputs, and the one --json record format.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cmath>
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
#include "src/obs/json.h"
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
// or overhead bar: on >= 4 hardware threads. A 1-core CI runner cannot
// demonstrate a 2x jobs=4 speedup, so there the bar is a plain record.
inline bool EnforceSpeedupBar(int hardware_threads) { return hardware_threads >= 4; }

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
// parallel), `--json FILE` (the bench's BenchRecords; nothing is written
// without it),
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

  // Emits the requested files, naming each path that cannot be written on
  // stderr. Returns false if any write failed (true when nothing was asked).
  bool Write() const {
    bool ok = true;
    auto check = [&ok](bool written, const std::string& path) {
      if (!written) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        ok = false;
      }
    };
    if (!metrics_out_.empty()) {
      ctobs::MetricsSnapshot snapshot;
      for (const auto& [label, observer] : observers_) {
        ctobs::SystemMetrics system = observer->Finalize();
        system.system = label;  // the bench's label, not the driver's
        snapshot.systems.push_back(std::move(system));
      }
      check(ctobs::WriteTextFile(metrics_out_, snapshot.ToJson()), metrics_out_);
    }
    if (!trace_out_.empty()) {
      ctobs::ChromeTraceWriter writer;
      int pid = 1;
      for (const auto& [label, observer] : observers_) {
        observer->AppendChromeTrace(&writer, pid++, label);
      }
      check(ctobs::WriteTextFile(trace_out_, writer.ToJson()), trace_out_);
    }
    if (!dossier_dir_.empty()) {
      for (const auto& [label, observer] : observers_) {
        std::string failed_path;
        check(ctobs::WriteDossiers(dossier_dir_, label, observer->dossiers(), &failed_path),
              failed_path);
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

// A bench's machine-readable results, the one format of every `--json FILE`:
// a JSON array of flat {"name", "unit", "value"} records. A record that is a
// bar also carries "bar" (its threshold, e.g. ">= 2") and "pass".
class BenchRecords {
 public:
  void Add(std::string name, std::string unit, double value) {
    records_.push_back({std::move(name), std::move(unit), value, "", true});
  }
  // A bar that is not `enforced` (a wall-clock bar on a host EnforceSpeedupBar
  // rejects) is recorded as a plain value and cannot fail.
  void AddBar(std::string name, std::string unit, double value, std::string bar, bool pass,
              bool enforced = true) {
    if (!enforced) {
      bar.clear();
      pass = true;
    }
    records_.push_back({std::move(name), std::move(unit), value, std::move(bar), pass});
  }

  // Prints each failed bar, writes the records to `json_path` unless it is
  // empty, and returns the bench's exit status: the number of failed bars,
  // plus one if the file cannot be written (its path goes to stderr).
  int Finish(const std::string& json_path) const {
    int status = 0;
    ctobs::JsonWriter json;
    json.BeginArray();
    for (const Record& record : records_) {
      json.BeginObject();
      json.Key("name").String(record.name);
      json.Key("unit").String(record.unit);
      // Counts stay exact; everything else keeps %g's six significant digits.
      if (std::fabs(record.value) < 1e15 && record.value == std::floor(record.value)) {
        json.Key("value").Int(static_cast<long long>(record.value));
      } else {
        json.Key("value").Double(record.value);
      }
      if (!record.bar.empty()) {
        json.Key("bar").String(record.bar);
        json.Key("pass").Bool(record.pass);
      }
      json.EndObject();
      if (!record.pass) {
        std::printf("FAIL: %s = %g %s (bar: %s)\n", record.name.c_str(), record.value,
                    record.unit.c_str(), record.bar.c_str());
        ++status;
      }
    }
    json.EndArray();
    if (json_path.empty()) {
      return status;
    }
    if (!ctobs::WriteTextFile(json_path, json.str())) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return status + 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
    return status;
  }

 private:
  struct Record {
    std::string name;
    std::string unit;
    double value = 0;
    std::string bar;  // "" = not a bar
    bool pass = true;
  };
  std::vector<Record> records_;
};

}  // namespace ctbench

#endif  // BENCH_BENCH_UTIL_H_
