# Runs ctstat on a small valid v4 snapshot and compares stdout with the
# expected text:
#   - --flows: a two-method flow table, rows sorted by deliveries, shares of
#     all deliveries;
#   - the default view with --json: a jobs=4 campaign whose summed phase wall
#     seconds (4.5 s) exceed its 1 s campaign time. Each phase's wall% and
#     phase_wall_share divide by the runs' wall time, the workload and
#     recovery-check sum (4 s), so those two add up to 100% at any --jobs.
#     A campaign with neither phase shows "-" and writes 0.
#
#   cmake -DCTSTAT=<ctstat binary> -DOUT=<work dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
file(WRITE "${OUT}/snapshot.json" [=[
{"schema":"crashtuner-metrics-v4","systems":[{"system":"Sys","runs":2,
"counters":{"outcome.ok":2},"gauges":{},
"histograms":{"phase.injection":{"bounds":[100,1000],"counts":[1,0,0],"count":1,"sum":50,"max":50},
"phase.recovery-check":{"bounds":[100,1000],"counts":[0,2,0],"count":2,"sum":600,"max":300},
"phase.workload":{"bounds":[100,1000],"counts":[1,1,0],"count":2,"sum":400,"max":350},
"run.virtual_ms":{"bounds":[100,1000],"counts":[0,2,0],"count":2,"sum":1000,"max":650}},
"flows":{"messages":10,"roots":4,"max_depth":3,"records_dropped":0,
"per_method":{"ack":4,"gossip":6}},
"wall":{"jobs":4,"campaign_seconds":1.0,"runs_per_second":2.0,
"phases":{"injection":0.5,"recovery-check":1.0,"workload":3.0},"driver":{"campaign":1.0}}},
{"system":"Bare","runs":1,"counters":{},"gauges":{},
"histograms":{"phase.injection":{"bounds":[100,1000],"counts":[1,0,0],"count":1,"sum":50,"max":50}},
"flows":{"messages":0,"roots":0,"max_depth":0,"records_dropped":0,"per_method":{}},
"wall":{"jobs":1,"campaign_seconds":1.0,"runs_per_second":1.0,
"phases":{"injection":0.5},"driver":{}}}]}
]=])

# A bracket argument drops the newline right after its opening bracket, so
# the blank first line of each text is the view's leading "\n".
set(expected_flows [=[

Sys — causal message flows
  deliveries 10 | roots 4 | max depth 3 | records dropped 0
  method                                     deliveries    share
  gossip                                              6    60.0%
  ack                                                 4    40.0%

Bare — causal message flows
  (no flow records — run with observation on)
]=])
set(expected_default [=[

Sys
===
runs 2 | jobs 4 | campaign 1.000s | 2.0 runs/s
  phase                           count    p50(ms)    p95(ms)    p99(ms) sim-sum(ms)   wall%
  injection                           1       50.0       95.0       99.0          50   12.5%
  recovery-check                      2      550.0      955.0      991.0         600   25.0%
  workload                            2      100.0      910.0      982.0         400   75.0%
  run.virtual_ms                      2      550.0      955.0      991.0        1000       -
  counters:
    outcome.ok                                          2
  driver phases (wall):  campaign=1.000s

Bare
====
runs 1 | jobs 1 | campaign 1.000s | 1.0 runs/s
  phase                           count    p50(ms)    p95(ms)    p99(ms) sim-sum(ms)   wall%
  injection                           1       50.0       95.0       99.0          50       -

wrote @OUT@/summary.json
]=])
string(CONFIGURE "${expected_default}" expected_default @ONLY)
set(expected_summary [=[{"bench":"observability","systems":[{"system":"Sys","runs":2,"jobs":4,"campaign_seconds":1,"runs_per_second":2,"phase_wall_share":{"injection":0.125,"recovery-check":0.25,"workload":0.75}},{"system":"Bare","runs":1,"jobs":1,"campaign_seconds":1,"runs_per_second":1,"phase_wall_share":{"injection":0}}]}]=])

# view_stdout(view args...): runs ctstat with `args`, which must exit 0 and
# print expected_<view>.
function(view_stdout view)
  string(JOIN " " args ${ARGN})
  execute_process(COMMAND "${CTSTAT}" "${OUT}/snapshot.json" ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "ctstat ${args} exited '${result}', want 0\nstderr:\n${err}")
  endif()
  if(NOT out STREQUAL expected_${view})
    message(FATAL_ERROR "ctstat ${args} printed\n${out}\nwant\n${expected_${view}}")
  endif()
endfunction()

view_stdout(flows --flows)
view_stdout(default --json "${OUT}/summary.json")
file(READ "${OUT}/summary.json" summary)
if(NOT summary STREQUAL expected_summary)
  message(FATAL_ERROR "ctstat --json wrote\n${summary}\nwant\n${expected_summary}")
endif()
