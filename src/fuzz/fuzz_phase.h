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
#include "src/fuzz/corpus.h"
#include "src/runtime/tracer.h"

namespace ctfuzz {

struct FuzzPhaseOptions {
  int runs = 0;            // fuzz budget; 0 leaves the report untouched
  std::string corpus_dir;  // when set, the final corpus is saved here
  // Campaign seed (DriverOptions::seed). The phase fuzzes under seed + 2000,
  // keeping its runs disjoint from profiling (seed) and Phase 2 (seed+1000).
  uint64_t seed = 2019;
  int jobs = 1;
  // Same observer the driver used (may be null): the phase opens a "fuzz"
  // driver span, each run lands in a slot past Phase 2's, and corpus/coverage
  // gauges go on the driver observer's metrics.
  ctobs::CampaignObserver* observer = nullptr;
};

struct FuzzResult {
  Corpus corpus;                          // runs that first reached a pair
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
// baseline. Fills report->fuzz (active = true) and saves the corpus when
// corpus_dir is set. Returns the full result for callers that need the
// corpus or coverage sets (tests, bench).
FuzzResult RunFuzzPhase(const ctcore::SystemUnderTest& system, ctcore::SystemReport* report,
                        const FuzzPhaseOptions& options);

// Re-executes every corpus entry with `access_points` profiled and verifies
// its recorded trace hash; throws std::runtime_error naming the entry on any
// divergence.
void ReplayCorpus(const ctcore::SystemUnderTest& system, const std::set<int>& access_points,
                  const Corpus& corpus);

}  // namespace ctfuzz

#endif  // SRC_FUZZ_FUZZ_PHASE_H_
