// Serializers for SystemReport: a human-readable markdown summary (the shape
// of the paper's per-system reporting), a machine-readable JSON document for
// downstream tooling, and the failure dossiers. All are pure functions of the
// report.
#ifndef SRC_CORE_REPORT_WRITER_H_
#define SRC_CORE_REPORT_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/obs/dossier.h"

namespace ctcore {

// Markdown: counts (Table 10/12 rows), times (Table 11 row), detected bugs
// (Table 5 rows) and timeout issues for one system.
std::string ReportToMarkdown(const SystemReport& report);

// Compact JSON (ctobs::JsonWriter): same content, stable key order.
std::string ReportToJson(const SystemReport& report);

// One failure dossier per bug-verdict injection of `report`, in injection
// order, built from its InjectionResult and `system`'s model. The campaign
// seeded injection i with `first_seed + i`. A landed fault is the phase the
// run failed in (InjectionName); otherwise the run failed in
// recovery-check when the job finished, else in its workload. A campaign run
// installs no partition but the one a network-mode injection lands.
std::vector<ctobs::Dossier> ReportDossiers(const SystemUnderTest& system,
                                           const SystemReport& report, uint64_t first_seed);

}  // namespace ctcore

#endif  // SRC_CORE_REPORT_WRITER_H_
