#include "src/core/report_writer.h"

#include <cstdio>
#include <sstream>

#include "src/common/strings.h"
#include "src/obs/json.h"

namespace ctcore {

namespace {

std::string TraceHashHex(uint64_t hash) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace

std::string ReportToMarkdown(const SystemReport& report) {
  std::ostringstream out;
  out << "# CrashTuner report — " << report.system << "\n\n";
  out << "## Analysis\n\n";
  out << "| metric | total | meta-info |\n|---|---|---|\n";
  out << "| types | " << report.total_types << " | " << report.metainfo_types << " |\n";
  out << "| fields | " << report.total_fields << " | " << report.metainfo_fields << " |\n";
  out << "| access points | " << report.total_access_points << " | "
      << report.metainfo_access_points << " |\n\n";
  out << "Static crash points: " << report.static_crash_points
      << " (pruned: " << report.pruned_constructor << " constructor-only, "
      << report.pruned_unused << " unused, " << report.pruned_sanity_checked
      << " sanity-checked). Dynamic crash points: " << report.dynamic_crash_points << ".\n\n";
  if (report.static_contexts > 0) {
    out << "Static contexts in use: " << report.static_contexts << " ("
        << report.static_unreachable_points << " points unreachable, "
        << report.static_infeasible_points << " infeasible, "
        << report.static_pruned_call_strings << " call strings pruned).\n\n";
  }
  if (report.fuzz.active) {
    out << "Workload fuzzing: " << report.fuzz.runs << " runs, corpus " << report.fuzz.corpus_size
        << ", coverage " << report.fuzz.coverage_pairs << " pairs (" << report.fuzz.baseline_pairs
        << " from the fixed script, " << report.fuzz.new_pairs << " fuzz-only), "
        << report.fuzz.bug_runs << " bug run(s), known bugs: "
        << (report.fuzz.bug_ids.empty() ? "none" : ctcommon::Join(report.fuzz.bug_ids, ", "))
        << ". Fuzz trace hash: " << TraceHashHex(report.fuzz.trace_hash) << ".\n\n";
  }
  out << "Times: analysis " << report.analysis_wall_seconds << " s wall, profiling "
      << report.profile_virtual_seconds << " virtual s, testing " << report.test_virtual_hours
      << " virtual h (" << report.test_wall_seconds << " s wall).\n\n";
  out << "Campaign trace hash: " << TraceHashHex(report.trace_hash) << ".\n\n";
  out << "## Detected bugs\n\n";
  if (report.bugs.empty()) {
    out << "None.\n";
  } else {
    out << "| id | priority | scenario | symptom | crash point | exposing points |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const auto& bug : report.bugs) {
      out << "| " << bug.bug_id << " | " << bug.priority << " | " << bug.scenario << " | "
          << bug.symptom << " | `" << bug.location << "` | " << bug.exposing_points.size()
          << " |\n";
    }
  }
  out << "\n## Timeout issues\n\n";
  if (report.timeout_issues.empty()) {
    out << "None.\n";
  } else {
    for (const auto& issue : report.timeout_issues) {
      out << "- `" << issue.location << "` finished in "
          << issue.outcome.virtual_duration_ms / 1000 << " s (slow but alive)\n";
    }
  }
  return out.str();
}

std::string ReportToJson(const SystemReport& report) {
  ctobs::JsonWriter json;
  json.BeginObject();
  json.Key("system").String(report.system);
  json.Key("totals").BeginObject();
  json.Key("types").Int(report.total_types);
  json.Key("fields").Int(report.total_fields);
  json.Key("access_points").Int(report.total_access_points);
  json.EndObject();
  json.Key("metainfo").BeginObject();
  json.Key("types").Int(report.metainfo_types);
  json.Key("fields").Int(report.metainfo_fields);
  json.Key("access_points").Int(report.metainfo_access_points);
  json.EndObject();
  json.Key("crash_points").BeginObject();
  json.Key("static").Int(report.static_crash_points);
  json.Key("dynamic").Int(report.dynamic_crash_points);
  json.EndObject();
  json.Key("pruned").BeginObject();
  json.Key("constructor").Int(report.pruned_constructor);
  json.Key("unused").Int(report.pruned_unused);
  json.Key("sanity_checked").Int(report.pruned_sanity_checked);
  json.EndObject();
  json.Key("static_analysis").BeginObject();
  json.Key("contexts").Int(report.static_contexts);
  json.Key("unreachable_points").Int(report.static_unreachable_points);
  json.Key("infeasible_points").Int(report.static_infeasible_points);
  json.Key("pruned_call_strings").Int(report.static_pruned_call_strings);
  json.EndObject();
  json.Key("profile").BeginObject();
  json.Key("iterations").Int(report.profile.iterations);
  json.Key("instrumented_runs").Int(report.profile.instrumented_runs);
  json.Key("dynamic_points").Int(report.profile.dynamic_access_points.size());
  json.EndObject();
  json.Key("times").BeginObject();
  json.Key("analysis_wall_s").Double(report.analysis_wall_seconds);
  json.Key("test_wall_s").Double(report.test_wall_seconds);
  json.Key("profile_virtual_s").Double(report.profile_virtual_seconds);
  json.Key("test_virtual_h").Double(report.test_virtual_hours);
  json.EndObject();
  json.Key("trace_hash").String(TraceHashHex(report.trace_hash));
  // Emitted only when a fuzz phase ran (--fuzz N): default reports and their
  // goldens serialize exactly as before.
  if (report.fuzz.active) {
    json.Key("fuzz").BeginObject();
    json.Key("runs").Int(report.fuzz.runs);
    json.Key("corpus_size").Int(report.fuzz.corpus_size);
    json.Key("baseline_pairs").Int(report.fuzz.baseline_pairs);
    json.Key("coverage_pairs").Int(report.fuzz.coverage_pairs);
    json.Key("new_pairs").Int(report.fuzz.new_pairs);
    json.Key("new_coverage_runs").Int(report.fuzz.new_coverage_runs);
    json.Key("bug_runs").Int(report.fuzz.bug_runs);
    json.Key("bug_ids").BeginArray();
    for (const std::string& id : report.fuzz.bug_ids) {
      json.String(id);
    }
    json.EndArray();
    json.Key("trace_hash").String(TraceHashHex(report.fuzz.trace_hash));
    json.EndObject();
  }
  json.Key("bugs").BeginArray();
  for (const auto& bug : report.bugs) {
    json.BeginObject();
    json.Key("id").String(bug.bug_id);
    json.Key("priority").String(bug.priority);
    json.Key("scenario").String(bug.scenario);
    json.Key("symptom").String(bug.symptom);
    json.Key("location").String(bug.location);
    json.Key("exposing_points").Int(bug.exposing_points.size());
    json.EndObject();
  }
  json.EndArray();
  json.Key("timeout_issues").Int(report.timeout_issues.size());
  json.EndObject();
  return json.str();
}

std::vector<ctobs::Dossier> ReportDossiers(const SystemUnderTest& system,
                                           const SystemReport& report, uint64_t first_seed) {
  const std::string workload =
      system.workload_name() + " x" + std::to_string(system.default_workload_size());
  std::vector<ctobs::Dossier> dossiers;
  for (size_t slot = 0; slot < report.injections.size(); ++slot) {
    const InjectionResult& injection = report.injections[slot];
    if (!injection.outcome.IsBug()) {
      continue;
    }
    const bool network = injection.mode == InjectionMode::kNetworkFault;
    ctobs::Dossier& dossier = dossiers.emplace_back();
    dossier.system = report.system;
    dossier.slot = static_cast<int>(slot);
    dossier.seed = first_seed + slot;
    dossier.failed_invariant = injection.outcome.Signature();
    if (injection.injected) {
      dossier.injected_points.push_back(
          {injection.point.point_id, injection.point.stack_key, injection.target_node,
           network ? "partition"
                   : (injection.kind == ctanalysis::CrashPointKind::kPreRead ? "shutdown"
                                                                             : "crash")});
      dossier.recovery_phase_span = InjectionName(system, injection.point.point_id);
      if (network) {
        dossier.fault_plan = "partition-epochs=1";
      }
    } else {
      dossier.recovery_phase_span = injection.outcome.finished ? "recovery-check" : "workload";
    }
    char hash_prefix[16];
    std::snprintf(hash_prefix, sizeof(hash_prefix), "%08llx",
                  static_cast<unsigned long long>(injection.trace_hash >> 32));
    dossier.trace_hash_prefix = hash_prefix;
    dossier.workload = workload;
  }
  return dossiers;
}

}  // namespace ctcore
