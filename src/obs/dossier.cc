#include "src/obs/dossier.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/obs/json.h"

namespace ctobs {

namespace {

std::string Escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

}  // namespace

std::string Dossier::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(kDossierSchema) + "\",\n";
  out += "  \"system\": \"" + Escape(system) + "\",\n";
  out += "  \"slot\": " + std::to_string(slot) + ",\n";
  out += "  \"seed\": \"" + std::to_string(seed) + "\",\n";
  out += "  \"failed_invariant\": \"" + Escape(failed_invariant) + "\",\n";
  out += "  \"injected_points\": [";
  for (size_t i = 0; i < injected_points.size(); ++i) {
    const DossierPoint& point = injected_points[i];
    if (i > 0) {
      out += ",";
    }
    out += "\n    {\"point_id\": " + std::to_string(point.point_id) +
           ", \"call_string\": \"" + Escape(point.call_string) +
           "\", \"target_node\": \"" + Escape(point.target_node) +
           "\", \"mode\": \"" + Escape(point.mode) + "\"}";
  }
  out += injected_points.empty() ? "],\n" : "\n  ],\n";
  out += "  \"recovery_phase_span\": \"" + Escape(recovery_phase_span) + "\",\n";
  out += "  \"trace_hash_prefix\": \"" + Escape(trace_hash_prefix) + "\",\n";
  out += "  \"fault_plan\": \"" + Escape(fault_plan) + "\",\n";
  out += "  \"workload\": \"" + Escape(workload) + "\"\n";
  out += "}\n";
  return out;
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
  const JsonValue& slot = Require(value, "slot");
  if (!slot.is_number()) {
    throw std::runtime_error("dossier: field 'slot' is not a number");
  }
  out.slot = static_cast<int>(slot.number_value);
  out.seed = std::stoull(RequireString(value, "seed"));
  out.failed_invariant = RequireString(value, "failed_invariant");
  const JsonValue& points = Require(value, "injected_points");
  if (!points.is_array()) {
    throw std::runtime_error("dossier: field 'injected_points' is not an array");
  }
  for (const JsonValue& item : points.array_items) {
    DossierPoint point;
    const JsonValue& id = Require(item, "point_id");
    if (!id.is_number()) {
      throw std::runtime_error("dossier: point_id is not a number");
    }
    point.point_id = static_cast<int>(id.number_value);
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
  for (const Dossier& dossier : dossiers) {
    const std::filesystem::path path = std::filesystem::path(directory) /
                                       (label + "-slot" + std::to_string(dossier.slot) + ".json");
    std::ofstream out(path);
    out << dossier.ToJson() << "\n";
    out.close();
    if (!out) {
      return fail(path.string());
    }
  }
  return true;
}

}  // namespace ctobs
