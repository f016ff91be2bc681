#include "src/core/report_writer.h"

#include <sstream>

namespace ctcore {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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
        << report.fuzz.bug_runs << " bug run(s). Fuzz trace hash: "
        << TraceHashHex(report.fuzz.trace_hash) << ".\n\n";
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
  std::ostringstream out;
  out << "{";
  out << "\"system\":\"" << JsonEscape(report.system) << "\",";
  out << "\"totals\":{\"types\":" << report.total_types << ",\"fields\":" << report.total_fields
      << ",\"access_points\":" << report.total_access_points << "},";
  out << "\"metainfo\":{\"types\":" << report.metainfo_types
      << ",\"fields\":" << report.metainfo_fields
      << ",\"access_points\":" << report.metainfo_access_points << "},";
  out << "\"crash_points\":{\"static\":" << report.static_crash_points
      << ",\"dynamic\":" << report.dynamic_crash_points << "},";
  out << "\"pruned\":{\"constructor\":" << report.pruned_constructor
      << ",\"unused\":" << report.pruned_unused
      << ",\"sanity_checked\":" << report.pruned_sanity_checked << "},";
  out << "\"static_analysis\":{\"contexts\":" << report.static_contexts
      << ",\"unreachable_points\":" << report.static_unreachable_points
      << ",\"infeasible_points\":" << report.static_infeasible_points
      << ",\"pruned_call_strings\":" << report.static_pruned_call_strings << "},";
  out << "\"profile\":{\"iterations\":" << report.profile.iterations
      << ",\"instrumented_runs\":" << report.profile.instrumented_runs
      << ",\"dynamic_points\":" << report.profile.dynamic_access_points.size() << "},";
  out << "\"times\":{\"analysis_wall_s\":" << report.analysis_wall_seconds
      << ",\"test_wall_s\":" << report.test_wall_seconds
      << ",\"profile_virtual_s\":" << report.profile_virtual_seconds
      << ",\"test_virtual_h\":" << report.test_virtual_hours << "},";
  out << "\"trace_hash\":\"" << TraceHashHex(report.trace_hash) << "\",";
  // Emitted only when a fuzz phase ran (--fuzz N): default reports and their
  // goldens serialize exactly as before.
  if (report.fuzz.active) {
    out << "\"fuzz\":{\"runs\":" << report.fuzz.runs
        << ",\"corpus_size\":" << report.fuzz.corpus_size
        << ",\"baseline_pairs\":" << report.fuzz.baseline_pairs
        << ",\"coverage_pairs\":" << report.fuzz.coverage_pairs
        << ",\"new_pairs\":" << report.fuzz.new_pairs
        << ",\"new_coverage_runs\":" << report.fuzz.new_coverage_runs
        << ",\"bug_runs\":" << report.fuzz.bug_runs << ",\"trace_hash\":\""
        << TraceHashHex(report.fuzz.trace_hash) << "\"},";
  }
  out << "\"bugs\":[";
  for (size_t i = 0; i < report.bugs.size(); ++i) {
    const auto& bug = report.bugs[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"id\":\"" << JsonEscape(bug.bug_id) << "\",\"priority\":\""
        << JsonEscape(bug.priority) << "\",\"scenario\":\"" << JsonEscape(bug.scenario)
        << "\",\"symptom\":\"" << JsonEscape(bug.symptom) << "\",\"location\":\""
        << JsonEscape(bug.location) << "\",\"exposing_points\":" << bug.exposing_points.size()
        << "}";
  }
  out << "],";
  out << "\"timeout_issues\":" << report.timeout_issues.size();
  out << "}";
  return out.str();
}

}  // namespace ctcore
