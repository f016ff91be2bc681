// Coverage-guided workload fuzzer.
//
// The fuzzer explores the space of grammar-op sequences around a system's
// fixed workload script, keeping every workload that produces a dynamic
// point (⟨access point, canonical call string⟩ pair) the coverage map has
// not seen. Execution fans across a CampaignEngine in fixed-size batches:
// each batch generates its workloads from the corpus *snapshot at batch
// start* and a per-run RNG seeded from (campaign seed ^ fuzz salt, global
// run index), then merges results in global index order — so the corpus,
// the coverage set, and the aggregate trace hash are byte-identical at any
// --jobs level.
#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/core/system_under_test.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/workload.h"
#include "src/obs/observer.h"

namespace ctfuzz {

struct FuzzOptions {
  int budget = 0;        // total fuzz runs to execute
  uint64_t seed = 2019;  // campaign seed; the fuzz stream is seed ^ salt
  int jobs = 1;
  // When set, each fuzz run's spans/metrics land in slot
  // observer_slot_base + global run index (offset past Phase 2's slots).
  ctobs::CampaignObserver* observer = nullptr;
  int observer_slot_base = 0;
};

struct FuzzResult {
  Corpus corpus;
  CoverageMap coverage;            // baseline ∪ everything fuzzing reached
  std::set<CoverageKey> new_keys;  // reached by fuzzing, absent from baseline
  int runs = 0;
  int new_coverage_runs = 0;  // runs that contributed >= 1 new key
  int bug_runs = 0;           // runs whose oracle verdict was a bug
  uint64_t trace_hash = 0;    // FNV mix of per-run trace hashes, index order
};

class WorkloadFuzzer {
 public:
  // Fuzzes `system` for options.budget runs. `access_points` / `io_points`
  // restrict profiling to the driver's candidate crash points (same sets the
  // profiler uses); `baseline` pre-loads the coverage map — pass the fixed
  // script's dynamic points so "new" means "beyond the script".
  FuzzResult Run(const ctcore::SystemUnderTest& system, const std::set<int>& access_points,
                 const std::set<int>& io_points, const std::set<CoverageKey>& baseline,
                 const FuzzOptions& options) const;

  // Re-executes every corpus entry and verifies its recorded trace hash;
  // throws std::runtime_error naming the entry on any divergence.
  void ReplayCorpus(const ctcore::SystemUnderTest& system, const std::set<int>& access_points,
                    const std::set<int>& io_points, const Corpus& corpus) const;
};

}  // namespace ctfuzz

#endif  // SRC_FUZZ_FUZZER_H_
