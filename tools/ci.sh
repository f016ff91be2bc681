#!/usr/bin/env bash
# Repository CI: warnings-as-errors build, tier-1 tests, the benchmark's
# recorded-output checks, model lint and the layering check, a
# jobs=1-vs-jobs=hw smoke of the parallel injection campaign and the other
# bench smokes, then ASan+UBSan and TSan builds of the same tree (the two
# sanitizers cannot share a build).
# Run from the repository root:
#   tools/ci.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

# Fails CI unless each FILE parses as JSON. Every JSON file a stage writes is
# checked right after the stage writes it.
check_json() {
  for file in "$@"; do
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$file" \
      || { echo "$file is not valid JSON" >&2; exit 1; }
  done
}
skip_sanitizers=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) skip_sanitizers=1 ;;
    *) echo "usage: tools/ci.sh [--skip-sanitizers]" >&2; exit 2 ;;
  esac
done

echo "== stage 1: build (-Wall -Wextra -Werror) =="
cmake -B build -S . -DCRASHTUNER_WERROR=ON
cmake --build build -j "$jobs"

echo "== stage 2: tests =="
# Includes the static/profiled differential suite, the context-enumeration
# property tests, and the golden-report regression (and again under both
# sanitizer builds in stages 5-6).
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== stage 2b: benchmark outputs (recorded bug ids and trace hashes) =="
# perfbench checks every pass against the bug ids and campaign trace hashes
# recorded for seed 2019. Its smoke (the benchmark's own test) checks the
# scale-1 campaign; one full scale8 pass then checks the 8x campaign of all
# five systems (stage 2's goldens pin only ZooKeeper and Cassandra at scale
# 8). This runs before the bench smokes of stage 4, so it reports even while
# one of them fails.
python3 perfbench/run.py --smoke
scale8_result="$(python3 perfbench/run.py --workload scale8 --seconds 0 | tail -n 1)"
echo "$scale8_result"
python3 -c 'import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)' "$scale8_result" \
  || { echo "scale8 pass does not match the recorded outputs" >&2; exit 1; }

echo "== stage 3: model lint and layering =="
./build/tools/ctlint --summary
# The layers below the driver include no observation, driver or fuzz header:
# the simulator (ctsim) and the runtime hooks (ctrt) do not depend on ctobs.
if grep -rnE '#include "src/(obs|core|fuzz)/' src/common src/sim src/runtime src/logging \
    src/model src/analysis src/study; then
  echo "a lower layer includes src/obs, src/core or src/fuzz (lines above)" >&2
  exit 1
fi

echo "== stage 4: parallel campaign smoke (jobs=1 vs jobs=hw) =="
# Times the Phase-2 campaign sequentially and at hardware concurrency and
# leaves the issue counts and per-system sequential/parallel seconds in
# BENCH_parallel.json. Every BENCH_*.json is a flat array of {name, unit,
# value} records; bars add {bar, pass} (bench/bench_util.h BenchRecords).
# The determinism guarantee itself (identical report at any thread count) is
# covered by campaign_test; this smoke only has to prove the parallel path
# runs outside the tests.
./build/bench/bench_table5_new_bugs --speedup --jobs 0 --json build/BENCH_parallel.json \
  | tail -n 12
check_json build/BENCH_parallel.json

echo "== stage 4b: multi-crash smoke (profiled pairs; static pair-set precision/recall) =="
# Runs the profiled 60-pair YARN campaign end to end (extensions_test pins
# its counts), then cross-checks the statically enumerated multi-crash pair
# set against the profiled pair set on every system and leaves each system's
# point and pair counts, recall and precision in
# BENCH_static_multicrash.json. The differential test suite enforces 100%
# recall; this smoke records the numbers and proves the static-only pipeline
# runs zero instrumented workloads outside the tests.
./build/bench/bench_multicrash | grep -A1 '^pairwise'
./build/bench/bench_multicrash --static-only --json build/BENCH_static_multicrash.json \
  | tail -n 10
check_json build/BENCH_static_multicrash.json

echo "== stage 4c: network-fault smoke (guided windows vs random partitions) =="
# One guided network-fault campaign per system against a short blind-partition
# baseline; leaves each system's guided and random counts, first-race trial
# index and wall time in BENCH_network_faults.json. The per-system guided
# races themselves are asserted by fault_plan_property_test; this smoke
# records the comparison.
./build/bench/bench_table7_random_injection 40 --jobs 0 \
  --json build/BENCH_network_faults.json | tail -n 12
check_json build/BENCH_network_faults.json
# The IO baseline and the three-approach comparison, so every injector runs
# end to end outside the tests.
./build/bench/bench_table9_io_injection | tail -n 3
./build/examples/compare_approaches | grep -A3 '^CrashTuner '

echo "== stage 4d: campaign observability (metrics snapshot + Chrome trace) =="
# Runs the five-system campaign at jobs=4 with observation on (metrics, the
# run phase table of workload, injection and recovery-check, causal flows),
# then validates the crashtuner-metrics-v4 snapshot with ctstat --check
# (shapes, integer fields, equal workload and recovery-check phase counts,
# and a wall sidecar of finite non-negative numbers) and leaves the
# throughput/phase-share summary in BENCH_observability.json. Passivity
# (identical SystemReport with observation on or off) and snapshot
# determinism across thread counts are asserted by campaign_test; this stage
# proves the exporters and the ctstat reader against a real campaign.
./build/bench/bench_table5_new_bugs --jobs 4 \
  --metrics-out build/metrics_snapshot.json \
  --trace-out build/campaign.trace.json > /dev/null
check_json build/metrics_snapshot.json build/campaign.trace.json
./build/tools/ctstat build/metrics_snapshot.json --check \
  --json build/BENCH_observability.json | tail -n 3
check_json build/BENCH_observability.json

echo "== stage 4f: scale-out scheduler smoke (ladder queue vs legacy, --scale sweep) =="
# Microbenches the ladder-queue/slab event loop against the embedded legacy
# priority-queue baseline (>=10x events/sec bar), then sweeps replicated
# fault-free campaigns over small and medium --scale levels at jobs=1 and
# jobs=4, cross-checking per-task event counts so a scheduling-order
# divergence between thread counts fails the stage. Leaves the microbench
# rates, each cell's throughput and peak queue depth, and the jobs-4 speedup
# at the largest level in BENCH_scale.json (the >=2x speedup bar is enforced
# only on >=4-hardware-thread machines; elsewhere it is a plain record).
# Byte-identical reports at --scale 8 across jobs=1/jobs=4 are asserted by
# campaign_test's ScaleDeterminism suite in stage 2.
./build/bench/bench_scale --json build/BENCH_scale.json 1 2 8 | tail -n 14
check_json build/BENCH_scale.json

echo "== stage 4g: fuzz smoke (grammar fuzzing, jobs=1 vs jobs=4) =="
# Short fuzz campaign per system: every system must discover at least one
# ⟨access point, call string⟩ pair the fixed workload script never produces,
# the corpus and trace hash must agree between jobs=1 and jobs=4 (the full
# byte-identity contract is fuzz_property_test in stage 2), and on >= 4
# hardware threads jobs=4 must be >= 2x faster. Each system's corpus size,
# new pairs, coverage against the static-only pair count, bug runs and
# runs/sec land in BENCH_fuzz.json.
./build/bench/bench_fuzz --json build/BENCH_fuzz.json | tail -n 12
check_json build/BENCH_fuzz.json

echo "== stage 4h: flow tracing at scale (jobs=4, ZooKeeper) =="
# Scale-8 ZooKeeper campaign twice — observation off, then phase stamps +
# causal flows on — asserting report passivity, flow-DAG health, round trips
# of the report-built dossiers of a mini-YARN campaign, and <= 10% tracing
# wall overhead (enforced on >= 4 hardware threads). The flow view then runs
# against the snapshot it wrote: ctstat --flows --check (delivery table + v4
# schema validation).
./build/bench/bench_obs_flows --json build/BENCH_obs_flows.json \
  --metrics-out build/obs_flows_snapshot.json \
  --dossier-dir build/dossiers 8 | tail -n 6
check_json build/BENCH_obs_flows.json build/obs_flows_snapshot.json build/dossiers/*.json
./build/tools/ctstat build/obs_flows_snapshot.json --flows --check | tail -n 10

if [[ "$skip_sanitizers" == 1 ]]; then
  echo "== stages 5-6: sanitizers skipped =="
  exit 0
fi

# Sanitized test runs are the slow half of CI: run the cheap unit label first
# so a plain breakage fails the stage in seconds, then the long-tail suites
# (property / differential / golden) in one sweep.
echo "== stage 5: ASan+UBSan build + tests =="
cmake -B build-asan -S . -DCRASHTUNER_SANITIZE=address,undefined
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs" -L unit
ctest --test-dir build-asan --output-on-failure -j "$jobs" -L "property|differential|golden"
./build-asan/tools/ctlint

echo "== stage 6: TSan build + tests =="
cmake -B build-tsan -S . -DCRASHTUNER_SANITIZE=thread
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L unit
ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L "property|differential|golden"

echo "CI green."
