// Failure dossiers: one structured record per failing run.
//
// A dossier is the canonical failure signature — the exact fields the
// dedup/clustering roadmap item keys on and a future ctreplay consumes:
// failed invariant, injected points with their canonical call strings, the
// phase the run failed in, a trace-hash prefix, the seed, the fault plan,
// and a workload reference. ctcore::ReportDossiers builds them from a
// finished report. A dossier round-trips through the JSON reader; the seed
// and the hash prefix travel as strings because JSON numbers cannot carry a
// full uint64.
#ifndef SRC_OBS_DOSSIER_H_
#define SRC_OBS_DOSSIER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ctobs {

struct JsonValue;

inline constexpr char kDossierSchema[] = "crashtuner-dossier-v1";

// One injected crash/shutdown point: the paper's dynamic crash point
// ⟨access point id, canonical call string⟩ plus where and how it landed.
struct DossierPoint {
  int point_id = -1;
  std::string call_string;  // canonical call string (the tracer's stack key)
  std::string target_node;
  std::string mode;  // "crash" | "shutdown" | "partition"
};

struct Dossier {
  std::string system;
  int slot = -1;       // injection index within the campaign
  uint64_t seed = 0;   // serialized as a decimal string
  std::string failed_invariant;  // RunOutcome::PrimarySymptom, or exception text
  std::vector<DossierPoint> injected_points;
  std::string recovery_phase_span;  // phase the failure surfaced in
  std::string trace_hash_prefix;    // first 8 hex digits of the trace hash
  std::string fault_plan;           // human-readable plan summary ("" = none)
  std::string workload;             // "<workload name> x<size>"

  std::string ToJson() const;

  // Parses a dossier back out of its JSON form. Throws std::runtime_error on
  // a schema mismatch or missing field, so stale v0 files fail loudly.
  static Dossier FromJson(const JsonValue& value);
  static Dossier FromJsonText(const std::string& text);
};

// The file-name stem for a campaign or system label: '/' and ' ' become '_'
// ("Hadoop2/Yarn" -> "Hadoop2_Yarn"), so a label never names a subdirectory.
std::string FileStem(std::string label);

// Writes one compact JSON file per dossier, DIRECTORY/<FileStem(label)>-slot<N>.json,
// creating DIRECTORY first. Returns false at the first directory or file
// that cannot be written, storing its path in *failed_path when that is
// non-null.
bool WriteDossiers(const std::string& directory, const std::string& label,
                   const std::vector<Dossier>& dossiers, std::string* failed_path = nullptr);

}  // namespace ctobs

#endif  // SRC_OBS_DOSSIER_H_
