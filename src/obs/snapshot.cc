#include "src/obs/snapshot.h"

#include "src/obs/json.h"

namespace ctobs {

namespace {

void WriteHistogram(JsonWriter& json, const Histogram& histogram) {
  json.BeginObject();
  json.Key("bounds").BeginArray();
  for (uint64_t bound : histogram.bounds()) {
    json.Int(bound);
  }
  json.EndArray();
  json.Key("counts").BeginArray();
  for (uint64_t count : histogram.bucket_counts()) {
    json.Int(count);
  }
  json.EndArray();
  json.Key("count").Int(histogram.count());
  json.Key("sum").Int(histogram.sum());
  json.Key("max").Int(histogram.max());
  json.EndObject();
}

template <typename Map>
void WriteIntMap(JsonWriter& json, const Map& values) {
  json.BeginObject();
  for (const auto& [name, value] : values) {
    json.Key(name).Int(value);
  }
  json.EndObject();
}

void WriteWallMap(JsonWriter& json, const std::map<std::string, double>& seconds) {
  json.BeginObject();
  for (const auto& [name, value] : seconds) {
    json.Key(name).Fixed(value, 6);
  }
  json.EndObject();
}

void WriteFlows(JsonWriter& json, const FlowStats& flows) {
  json.BeginObject();
  json.Key("messages").Int(flows.messages);
  json.Key("roots").Int(flows.roots);
  json.Key("max_depth").Int(flows.max_depth);
  json.Key("records_dropped").Int(flows.records_dropped);
  WriteIntMap(json.Key("per_method"), flows.per_method);
  json.EndObject();
}

void WriteSystem(JsonWriter& json, const SystemMetrics& system, bool include_wall) {
  json.BeginObject();
  json.Key("system").String(system.system);
  json.Key("runs").Int(system.runs);
  WriteIntMap(json.Key("counters"), system.metrics.counters());
  WriteIntMap(json.Key("gauges"), system.metrics.gauges());
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : system.metrics.histograms()) {
    WriteHistogram(json.Key(name), histogram);
  }
  json.EndObject();
  WriteFlows(json.Key("flows"), system.flows);
  if (include_wall) {
    const double runs_per_second =
        system.campaign_wall_seconds > 0
            ? static_cast<double>(system.runs) / system.campaign_wall_seconds
            : 0.0;
    json.Key("wall").BeginObject();
    json.Key("jobs").Int(system.jobs);
    json.Key("campaign_seconds").Fixed(system.campaign_wall_seconds, 6);
    json.Key("runs_per_second").Fixed(runs_per_second, 6);
    WriteWallMap(json.Key("phases"), system.phase_wall_seconds);
    WriteWallMap(json.Key("driver"), system.driver_wall_seconds);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

std::string MetricsSnapshot::ToJson(bool include_wall) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String(kSnapshotSchema);
  json.Key("systems").BeginArray();
  for (const SystemMetrics& system : systems) {
    WriteSystem(json, system, include_wall);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace ctobs
