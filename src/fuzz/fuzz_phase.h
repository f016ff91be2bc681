// The workload-fuzzing phase, run after the CrashTuner pipeline.
//
// Every fuzz run is an independent draw: run g generates its grammar-op
// workload from its own RNG stream, (campaign seed + 2000) ^ fuzz salt mixed
// with g, so the whole budget fans out as one CampaignEngine::Map and
// nothing a run draws depends on what other runs reached. Results then merge
// in run order: coverage (the paper's dynamic crash points, ⟨access point,
// canonical call string⟩ pairs, pre-loaded with the fixed script's profiled
// pairs), the corpus of runs that first reached a pair, the aggregate trace
// hash, and the bug runs, which TriageBugs matches against the system's
// known bugs. Corpus, coverage, trace hash and report are byte-identical at
// any --jobs.
//
// Lives in ct_fuzz (not ct_core) so the core driver keeps no dependency on
// the fuzzer; the CLI tools call RunFuzzPhase when --fuzz N is given, before
// handing the report to the writer.
#ifndef SRC_FUZZ_FUZZ_PHASE_H_
#define SRC_FUZZ_FUZZ_PHASE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/fuzz/workload.h"
#include "src/runtime/tracer.h"

namespace ctfuzz {

struct FuzzPhaseOptions {
  int runs = 0;  // fuzz budget; 0 leaves the report untouched
  // Campaign seed (DriverOptions::seed). Only op generation draws from it,
  // through the seed + 2000 stream above; the runs themselves draw nothing.
  uint64_t seed = 2019;
  int jobs = 1;
};

// A run that first reached a dynamic point, kept in run order.
struct CorpusEntry {
  FuzzWorkload workload;
  uint64_t trace_hash = 0;  // trace hash of the run that admitted it
  int run_index = -1;       // fuzz run index that produced it
  int new_keys = 0;         // dynamic points it was first to reach

  bool operator==(const CorpusEntry&) const = default;
};

struct FuzzResult {
  std::vector<CorpusEntry> corpus;        // runs that first reached a pair
  std::set<ctrt::DynamicPoint> coverage;  // script ∪ everything fuzzing reached
  std::set<ctrt::DynamicPoint> new_keys;  // reached by fuzzing, absent from the script
  int runs = 0;
  int new_coverage_runs = 0;  // runs that contributed >= 1 new pair
  int bug_runs = 0;           // runs whose oracle verdict was a bug
  std::vector<std::string> bug_ids;  // distinct known bugs TriageBugs matched
  uint64_t trace_hash = 0;           // FNV mix of per-run trace hashes, run order
};

// Fuzzes `system` seeded by the pipeline's report: candidate points are the
// report's static crash points, baseline coverage is the fixed script's
// profiled dynamic points, and the oracle uses the profile's common-exception
// baseline. Fills report->fuzz (active = true). Returns the full result for
// callers that need the corpus or coverage sets (tests, bench).
FuzzResult RunFuzzPhase(const ctcore::SystemUnderTest& system, ctcore::SystemReport* report,
                        const FuzzPhaseOptions& options);

}  // namespace ctfuzz

#endif  // SRC_FUZZ_FUZZ_PHASE_H_
