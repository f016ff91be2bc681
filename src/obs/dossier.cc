#include "src/obs/dossier.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "src/obs/json.h"

namespace ctobs {

namespace {

const JsonValue& Require(const JsonValue& value, const std::string& key) {
  const JsonValue* found = value.Find(key);
  if (found == nullptr) {
    throw std::runtime_error("dossier: missing field '" + key + "'");
  }
  return *found;
}

std::string RequireString(const JsonValue& value, const std::string& key) {
  const JsonValue& found = Require(value, key);
  if (!found.is_string()) {
    throw std::runtime_error("dossier: field '" + key + "' is not a string");
  }
  return found.string_value;
}

// A non-negative int field (a slot or an access point id).
int RequireInt(const JsonValue& value, const std::string& key) {
  return static_cast<int>(JsonInteger(Require(value, key), "dossier: field '" + key + "'", 0,
                                      std::numeric_limits<int>::max()));
}

}  // namespace

std::string Dossier::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String(kDossierSchema);
  json.Key("system").String(system);
  json.Key("slot").Int(slot);
  json.Key("seed").String(std::to_string(seed));
  json.Key("failed_invariant").String(failed_invariant);
  json.Key("injected_points").BeginArray();
  for (const DossierPoint& point : injected_points) {
    json.BeginObject();
    json.Key("point_id").Int(point.point_id);
    json.Key("call_string").String(point.call_string);
    json.Key("target_node").String(point.target_node);
    json.Key("mode").String(point.mode);
    json.EndObject();
  }
  json.EndArray();
  json.Key("recovery_phase_span").String(recovery_phase_span);
  json.Key("trace_hash_prefix").String(trace_hash_prefix);
  json.Key("fault_plan").String(fault_plan);
  json.Key("workload").String(workload);
  json.EndObject();
  return json.str();
}

Dossier Dossier::FromJson(const JsonValue& value) {
  if (!value.is_object()) {
    throw std::runtime_error("dossier: top level is not an object");
  }
  const std::string schema = RequireString(value, "schema");
  if (schema != kDossierSchema) {
    throw std::runtime_error("dossier: schema '" + schema + "' is not '" +
                             kDossierSchema + "'");
  }
  Dossier out;
  out.system = RequireString(value, "system");
  out.slot = RequireInt(value, "slot");
  // The seed travels as a decimal string; std::stoull would wrap "-3".
  const std::string seed = RequireString(value, "seed");
  const auto [end, error] = std::from_chars(seed.data(), seed.data() + seed.size(), out.seed);
  if (error != std::errc() || end != seed.data() + seed.size()) {
    throw std::runtime_error("dossier: field 'seed' is \"" + seed + "\", not a decimal uint64");
  }
  out.failed_invariant = RequireString(value, "failed_invariant");
  const JsonValue& points = Require(value, "injected_points");
  if (!points.is_array()) {
    throw std::runtime_error("dossier: field 'injected_points' is not an array");
  }
  for (const JsonValue& item : points.array_items) {
    DossierPoint point;
    point.point_id = RequireInt(item, "point_id");
    point.call_string = RequireString(item, "call_string");
    point.target_node = RequireString(item, "target_node");
    point.mode = RequireString(item, "mode");
    out.injected_points.push_back(std::move(point));
  }
  out.recovery_phase_span = RequireString(value, "recovery_phase_span");
  out.trace_hash_prefix = RequireString(value, "trace_hash_prefix");
  out.fault_plan = RequireString(value, "fault_plan");
  out.workload = RequireString(value, "workload");
  return out;
}

Dossier Dossier::FromJsonText(const std::string& text) {
  return FromJson(ParseJson(text));
}

std::string FileStem(std::string label) {
  std::replace_if(label.begin(), label.end(), [](char c) { return c == '/' || c == ' '; }, '_');
  return label;
}

bool WriteDossiers(const std::string& directory, const std::string& label,
                   const std::vector<Dossier>& dossiers, std::string* failed_path) {
  auto fail = [failed_path](const std::string& path) {
    if (failed_path != nullptr) {
      *failed_path = path;
    }
    return false;
  };
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return fail(directory);
  }
  const std::string stem = FileStem(label);
  for (const Dossier& dossier : dossiers) {
    const std::string path = (std::filesystem::path(directory) /
                              (stem + "-slot" + std::to_string(dossier.slot) + ".json"))
                                 .string();
    if (!WriteTextFile(path, dossier.ToJson())) {
      return fail(path);
    }
  }
  return true;
}

}  // namespace ctobs
