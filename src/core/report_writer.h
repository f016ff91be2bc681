// Serializers for SystemReport: a human-readable markdown summary (the shape
// of the paper's per-system reporting) and a machine-readable JSON document
// for downstream tooling. Both are pure functions of the report.
#ifndef SRC_CORE_REPORT_WRITER_H_
#define SRC_CORE_REPORT_WRITER_H_

#include <string>

#include "src/core/crashtuner.h"

namespace ctcore {

// Markdown: counts (Table 10/12 rows), times (Table 11 row), detected bugs
// (Table 5 rows) and timeout issues for one system.
std::string ReportToMarkdown(const SystemReport& report);

// Compact JSON (ctobs::JsonWriter): same content, stable key order.
std::string ReportToJson(const SystemReport& report);

}  // namespace ctcore

#endif  // SRC_CORE_REPORT_WRITER_H_
