// ctstat — render and validate campaign metrics snapshots.
//
//   ctstat <snapshot.json> [--check] [--flows] [--json FILE]
//
// Reads a MetricsSnapshot written by --metrics-out (src/obs/snapshot.h) and
// prints, per campaign: the phase latency table (count, sim-time p50/p95/p99
// from the fixed-bucket histograms, and each phase's share of the runs' wall
// time), the injection/outcome counters, and the runs-per-second throughput
// line. The workload and recovery-check phases split every observed run with
// no gap, so their summed wall seconds are the runs' wall time and the wall%
// column is independent of --jobs.
//
// --flows prints the causal message-flow statistics: delivered messages,
// root sends, maximum causal chain depth, and the per-method delivery table.
//
// --check validates the file instead of merely rendering it: schema tag
// (crashtuner-metrics-v4), non-empty system list, every integer field an
// integer in range (no negative count, fraction or value past 2^53),
// histogram shape (ascending bounds, counts == bounds+overflow, bucket
// counts summing to `count`), flow-section shape, a wall object whose
// seconds and rates are finite non-negative numbers, and phase completeness
// (phase.recovery-check holds as many samples as phase.workload). Exit code
// 0 only when every check passes — CI runs this on the snapshot the
// observability stage produces.
//
// --json FILE emits the BENCH_observability.json summary (runs/sec and
// per-phase shares of the runs' wall time per campaign) the CI stage
// archives.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"

namespace {

struct ParsedHistogram {
  std::string name;
  ctobs::Histogram histogram = ctobs::Histogram();
};

struct ParsedFlows {
  unsigned long long messages = 0;
  unsigned long long roots = 0;
  unsigned long long max_depth = 0;
  unsigned long long records_dropped = 0;
  std::map<std::string, unsigned long long> per_method;
};

struct ParsedSystem {
  std::string system;
  long long runs = 0;
  std::vector<std::pair<std::string, unsigned long long>> counters;
  std::vector<std::pair<std::string, long long>> gauges;
  std::vector<ParsedHistogram> histograms;
  ParsedFlows flows;
  bool has_wall = false;
  int jobs = 0;
  double campaign_seconds = 0;
  double runs_per_second = 0;
  std::map<std::string, double> phase_wall_seconds;
  std::map<std::string, double> driver_wall_seconds;
};

struct ParsedSnapshot {
  std::string schema;
  std::vector<ParsedSystem> systems;
};

// Collects validation failures; rendering keeps going so one bad histogram
// does not hide the rest of the report.
struct Checker {
  std::vector<std::string> failures;

  void Fail(const std::string& where, const std::string& what) {
    failures.push_back(where + ": " + what);
  }

  // Reads an integer field through ctobs::JsonInteger. A value that is not
  // an integer in [min, max] is a failure naming the field, and reads as 0.
  int64_t Integer(const ctobs::JsonValue& value, const std::string& where,
                  const std::string& field, int64_t min = 0,
                  int64_t max = ctobs::kJsonMaxInteger) {
    try {
      return ctobs::JsonInteger(value, field, min, max);
    } catch (const std::runtime_error& error) {
      Fail(where, error.what());
      return 0;
    }
  }

  // Reads a wall-clock field. A value that is not a finite, non-negative
  // number is a failure naming the field, and reads as 0.
  double Seconds(const ctobs::JsonValue& value, const std::string& where,
                 const std::string& field) {
    if (!value.is_number()) {
      Fail(where, field + " is not a number");
      return 0;
    }
    if (!std::isfinite(value.number_value) || value.number_value < 0) {
      char shown[32];
      std::snprintf(shown, sizeof(shown), "%.17g", value.number_value);
      Fail(where, field + " is " + shown + ", not a finite non-negative number");
      return 0;
    }
    return value.number_value;
  }
};

const ctobs::JsonValue* Require(const ctobs::JsonValue& object, const std::string& key,
                                const std::string& where, Checker* checker) {
  const ctobs::JsonValue* value = object.Find(key);
  if (value == nullptr) {
    checker->Fail(where, "missing \"" + key + "\"");
  }
  return value;
}

bool LoadHistogram(const std::string& name, const ctobs::JsonValue& json,
                   const std::string& where, Checker* checker, ParsedHistogram* out) {
  if (!json.is_object()) {
    checker->Fail(where, "histogram is not an object");
    return false;
  }
  const ctobs::JsonValue* bounds_json = Require(json, "bounds", where, checker);
  const ctobs::JsonValue* counts_json = Require(json, "counts", where, checker);
  const ctobs::JsonValue* count_json = Require(json, "count", where, checker);
  const ctobs::JsonValue* sum_json = Require(json, "sum", where, checker);
  const ctobs::JsonValue* max_json = Require(json, "max", where, checker);
  if (bounds_json == nullptr || counts_json == nullptr || count_json == nullptr ||
      sum_json == nullptr || max_json == nullptr || !bounds_json->is_array() ||
      !counts_json->is_array()) {
    return false;
  }
  const size_t failures_before = checker->failures.size();
  std::vector<uint64_t> bounds;
  for (size_t i = 0; i < bounds_json->array_items.size(); ++i) {
    bounds.push_back(checker->Integer(bounds_json->array_items[i], where,
                                      "bounds[" + std::to_string(i) + "]"));
  }
  std::vector<uint64_t> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < counts_json->array_items.size(); ++i) {
    counts.push_back(checker->Integer(counts_json->array_items[i], where,
                                      "counts[" + std::to_string(i) + "]"));
    total += counts.back();
  }
  const uint64_t count = checker->Integer(*count_json, where, "count");
  const uint64_t sum = checker->Integer(*sum_json, where, "sum");
  const uint64_t max = checker->Integer(*max_json, where, "max");
  if (checker->failures.size() > failures_before) {
    return false;
  }
  if (bounds.empty()) {
    checker->Fail(where, "empty bounds");
    return false;
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i - 1] >= bounds[i]) {
      checker->Fail(where, "bounds not strictly ascending");
      return false;
    }
  }
  if (counts.size() != bounds.size() + 1) {
    checker->Fail(where, "counts must have one entry per bound plus overflow");
    return false;
  }
  if (total != count) {
    checker->Fail(where, "bucket counts do not sum to \"count\"");
    return false;
  }
  out->name = name;
  out->histogram = ctobs::Histogram::FromParts(std::move(bounds), std::move(counts), sum, max);
  if (out->histogram.count() > 0 && out->histogram.sum() < out->histogram.max()) {
    checker->Fail(where, "sum below max");
  }
  return true;
}

void LoadWallMap(const ctobs::JsonValue& json, const std::string& where, const std::string& field,
                 Checker* checker, std::map<std::string, double>* out) {
  if (!json.is_object()) {
    checker->Fail(where, "\"" + field + "\" is not an object");
    return;
  }
  for (const auto& [name, value] : json.object_items) {
    (*out)[name] = checker->Seconds(value, where, field + "." + name);
  }
}

ParsedSnapshot LoadSnapshot(const ctobs::JsonValue& root, Checker* checker) {
  ParsedSnapshot snapshot;
  if (!root.is_object()) {
    checker->Fail("root", "not a JSON object");
    return snapshot;
  }
  const ctobs::JsonValue* schema = Require(root, "schema", "root", checker);
  if (schema != nullptr) {
    snapshot.schema = schema->string_value;
    if (snapshot.schema != ctobs::kSnapshotSchema) {
      checker->Fail("root", "schema is \"" + snapshot.schema + "\", expected \"" +
                                ctobs::kSnapshotSchema + "\"");
    }
  }
  const ctobs::JsonValue* systems = Require(root, "systems", "root", checker);
  if (systems == nullptr || !systems->is_array()) {
    if (systems != nullptr) {
      checker->Fail("root", "\"systems\" is not an array");
    }
    return snapshot;
  }
  if (systems->array_items.empty()) {
    checker->Fail("root", "no systems recorded");
  }
  for (size_t i = 0; i < systems->array_items.size(); ++i) {
    const ctobs::JsonValue& json = systems->array_items[i];
    ParsedSystem system;
    const std::string where = "systems[" + std::to_string(i) + "]";
    if (!json.is_object()) {
      checker->Fail(where, "not an object");
      continue;
    }
    const ctobs::JsonValue* name = Require(json, "system", where, checker);
    if (name != nullptr) {
      system.system = name->string_value;
      if (system.system.empty()) {
        checker->Fail(where, "empty system name");
      }
    }
    const ctobs::JsonValue* runs = Require(json, "runs", where, checker);
    if (runs != nullptr) {
      system.runs = checker->Integer(*runs, where, "runs");
    }
    if (const ctobs::JsonValue* counters = json.Find("counters")) {
      for (const auto& [counter, value] : counters->object_items) {
        system.counters.emplace_back(
            counter, checker->Integer(value, where, "counter \"" + counter + "\""));
      }
    }
    if (const ctobs::JsonValue* gauges = json.Find("gauges")) {
      for (const auto& [gauge, value] : gauges->object_items) {
        system.gauges.emplace_back(gauge, checker->Integer(value, where,
                                                           "gauge \"" + gauge + "\"",
                                                           -ctobs::kJsonMaxInteger));
      }
    }
    if (const ctobs::JsonValue* histograms = json.Find("histograms")) {
      for (const auto& [histogram_name, value] : histograms->object_items) {
        ParsedHistogram parsed;
        if (LoadHistogram(histogram_name, value, where + "." + histogram_name, checker,
                          &parsed)) {
          system.histograms.push_back(std::move(parsed));
        }
      }
    }
    // Every observed run stamps workload and recovery-check once, so the two
    // phases hold equal sample counts (a missing histogram holds none). A
    // shortfall means phase stamps were lost.
    std::map<std::string, uint64_t> phase_samples;
    for (const ParsedHistogram& parsed : system.histograms) {
      phase_samples[parsed.name] = parsed.histogram.count();
    }
    if (phase_samples["phase.recovery-check"] != phase_samples["phase.workload"]) {
      checker->Fail(where, "phase.recovery-check holds " +
                               std::to_string(phase_samples["phase.recovery-check"]) +
                               " samples, phase.workload " +
                               std::to_string(phase_samples["phase.workload"]));
    }
    const ctobs::JsonValue* flows = Require(json, "flows", where, checker);
    if (flows != nullptr) {
      if (!flows->is_object()) {
        checker->Fail(where, "\"flows\" is not an object");
      } else {
        const std::string flow_where = where + ".flows";
        auto load_flow_count = [&](const char* key, unsigned long long* out) {
          if (const ctobs::JsonValue* value = Require(*flows, key, flow_where, checker)) {
            *out = checker->Integer(*value, flow_where, key);
          }
        };
        load_flow_count("messages", &system.flows.messages);
        load_flow_count("roots", &system.flows.roots);
        load_flow_count("max_depth", &system.flows.max_depth);
        load_flow_count("records_dropped", &system.flows.records_dropped);
        if (system.flows.roots > system.flows.messages) {
          checker->Fail(flow_where, "roots exceed total messages");
        }
        if (const ctobs::JsonValue* per_method =
                Require(*flows, "per_method", flow_where, checker)) {
          unsigned long long method_total = 0;
          for (const auto& [method, count] : per_method->object_items) {
            system.flows.per_method[method] =
                checker->Integer(count, flow_where, "per_method \"" + method + "\"");
            method_total += system.flows.per_method[method];
          }
          if (method_total != system.flows.messages) {
            checker->Fail(flow_where, "per_method counts do not sum to \"messages\"");
          }
        }
      }
    }
    if (const ctobs::JsonValue* wall = json.Find("wall"); wall != nullptr && !wall->is_object()) {
      checker->Fail(where, "\"wall\" is not an object");
    } else if (wall != nullptr) {
      system.has_wall = true;
      if (const ctobs::JsonValue* jobs = wall->Find("jobs")) {
        system.jobs = static_cast<int>(
            checker->Integer(*jobs, where, "wall.jobs", 1, std::numeric_limits<int>::max()));
      }
      if (const ctobs::JsonValue* seconds = wall->Find("campaign_seconds")) {
        system.campaign_seconds = checker->Seconds(*seconds, where, "wall.campaign_seconds");
      }
      if (const ctobs::JsonValue* rate = wall->Find("runs_per_second")) {
        system.runs_per_second = checker->Seconds(*rate, where, "wall.runs_per_second");
      }
      if (const ctobs::JsonValue* phases = wall->Find("phases")) {
        LoadWallMap(*phases, where, "wall.phases", checker, &system.phase_wall_seconds);
      }
      if (const ctobs::JsonValue* driver = wall->Find("driver")) {
        LoadWallMap(*driver, where, "wall.driver", checker, &system.driver_wall_seconds);
      }
    }
    snapshot.systems.push_back(std::move(system));
  }
  return snapshot;
}

// The runs' wall time: workload and recovery-check split every observed run
// with no gap, so their wall seconds sum to it. 0 when neither was recorded.
double RunWallSeconds(const ParsedSystem& system) {
  double total = 0;
  for (const char* phase : {"workload", "recovery-check"}) {
    if (auto it = system.phase_wall_seconds.find(phase); it != system.phase_wall_seconds.end()) {
      total += it->second;
    }
  }
  return total;
}

// "phase.workload" -> "workload"; anything else renders under its metric name.
std::string PhaseLabel(const std::string& metric) {
  const std::string prefix = "phase.";
  if (metric.compare(0, prefix.size(), prefix) == 0) {
    return metric.substr(prefix.size());
  }
  return metric;
}

void PrintSystem(const ParsedSystem& system) {
  std::printf("\n%s\n", system.system.c_str());
  for (size_t i = 0; i < system.system.size(); ++i) {
    std::printf("=");
  }
  std::printf("\n");
  if (system.has_wall) {
    std::printf("runs %lld | jobs %d | campaign %.3fs | %.1f runs/s\n", system.runs,
                system.jobs, system.campaign_seconds, system.runs_per_second);
  } else {
    std::printf("runs %lld (deterministic fields only, no wall section)\n", system.runs);
  }

  const double wall_total = RunWallSeconds(system);
  std::printf("  %-28s %8s %10s %10s %10s %11s %7s\n", "phase", "count", "p50(ms)",
              "p95(ms)", "p99(ms)", "sim-sum(ms)", "wall%");
  for (const ParsedHistogram& parsed : system.histograms) {
    const std::string label = PhaseLabel(parsed.name);
    const ctobs::Histogram& histogram = parsed.histogram;
    auto wall = system.phase_wall_seconds.find(label);
    char wall_cell[16];
    if (wall != system.phase_wall_seconds.end() && wall_total > 0) {
      std::snprintf(wall_cell, sizeof(wall_cell), "%6.1f%%",
                    100.0 * wall->second / wall_total);
    } else {
      std::snprintf(wall_cell, sizeof(wall_cell), "%7s", "-");
    }
    std::printf("  %-28s %8llu %10.1f %10.1f %10.1f %11llu %7s\n", label.c_str(),
                static_cast<unsigned long long>(histogram.count()), histogram.Percentile(50),
                histogram.Percentile(95), histogram.Percentile(99),
                static_cast<unsigned long long>(histogram.sum()), wall_cell);
  }

  if (!system.counters.empty()) {
    std::printf("  counters:\n");
    for (const auto& [name, value] : system.counters) {
      std::printf("    %-40s %12llu\n", name.c_str(), value);
    }
  }
  if (!system.gauges.empty()) {
    std::printf("  gauges:\n");
    for (const auto& [name, value] : system.gauges) {
      std::printf("    %-40s %12lld\n", name.c_str(), value);
    }
  }
  if (!system.driver_wall_seconds.empty()) {
    std::printf("  driver phases (wall):");
    for (const auto& [name, seconds] : system.driver_wall_seconds) {
      std::printf("  %s=%.3fs", name.c_str(), seconds);
    }
    std::printf("\n");
  }
}

// --flows: the causal message-flow summary reconstructed at delivery time.
void PrintFlows(const ParsedSystem& system) {
  std::printf("\n%s — causal message flows\n", system.system.c_str());
  const ParsedFlows& flows = system.flows;
  if (flows.messages == 0) {
    std::printf("  (no flow records — run with observation on)\n");
    return;
  }
  std::printf("  deliveries %llu | roots %llu | max depth %llu | records dropped %llu\n",
              flows.messages, flows.roots, flows.max_depth, flows.records_dropped);
  std::vector<std::pair<std::string, unsigned long long>> methods(flows.per_method.begin(),
                                                                  flows.per_method.end());
  std::sort(methods.begin(), methods.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  std::printf("  %-40s %12s %8s\n", "method", "deliveries", "share");
  for (const auto& [method, count] : methods) {
    std::printf("  %-40s %12llu %7.1f%%\n", method.c_str(), count,
                100.0 * static_cast<double>(count) / static_cast<double>(flows.messages));
  }
}

std::string SummaryJson(const ParsedSnapshot& snapshot) {
  ctobs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("observability");
  json.Key("systems").BeginArray();
  for (const ParsedSystem& system : snapshot.systems) {
    json.BeginObject();
    json.Key("system").String(system.system);
    json.Key("runs").Int(system.runs);
    json.Key("jobs").Int(system.jobs);
    json.Key("campaign_seconds").Double(system.campaign_seconds);
    json.Key("runs_per_second").Double(system.runs_per_second);
    json.Key("phase_wall_share").BeginObject();
    const double wall_total = RunWallSeconds(system);
    for (const auto& [name, seconds] : system.phase_wall_seconds) {
      json.Key(name).Double(wall_total > 0 ? seconds / wall_total : 0.0);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string json_path;
  bool check = false;
  bool show_flows = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--flows") {
      show_flows = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: ctstat <snapshot.json> [--check] [--flows] [--json FILE]\n");
      return 2;
    } else {
      snapshot_path = arg;
    }
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr,
                 "usage: ctstat <snapshot.json> [--check] [--flows] [--json FILE]\n");
    return 2;
  }

  std::ifstream in(snapshot_path);
  if (!in) {
    std::fprintf(stderr, "ctstat: cannot read %s\n", snapshot_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Checker checker;
  ParsedSnapshot snapshot;
  try {
    snapshot = LoadSnapshot(ctobs::ParseJson(buffer.str()), &checker);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctstat: %s: %s\n", snapshot_path.c_str(), error.what());
    return 2;
  }

  for (const ParsedSystem& system : snapshot.systems) {
    // The focused flow view replaces the full report.
    if (show_flows) {
      PrintFlows(system);
    } else {
      PrintSystem(system);
    }
  }

  if (!json_path.empty()) {
    if (!ctobs::WriteTextFile(json_path, SummaryJson(snapshot))) {
      std::fprintf(stderr, "ctstat: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (check) {
    if (checker.failures.empty()) {
      std::printf("\ncheck: OK (%zu campaigns)\n", snapshot.systems.size());
    } else {
      std::printf("\ncheck: %zu failure(s)\n", checker.failures.size());
      for (const std::string& failure : checker.failures) {
        std::printf("  %s\n", failure.c_str());
      }
      return 1;
    }
  }
  return 0;
}
