# Runs ctstat --top and ctstat --flows on a small valid v3 snapshot with two
# components and a two-method flow table, and compares each view's stdout
# with the expected text: rows sorted by dwell and by deliveries, shares of
# the run.virtual_ms sum and of all deliveries.
#
#   cmake -DCTSTAT=<ctstat binary> -DOUT=<work dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
file(WRITE "${OUT}/snapshot.json" [=[
{"schema":"crashtuner-metrics-v3","systems":[{"system":"Sys","runs":2,
"counters":{"run.count":2},"gauges":{},
"histograms":{"run.virtual_ms":{"bounds":[100,1000],"counts":[0,2,0],"count":2,
"sum":1000,"max":600}},
"components":{"gossip-round":{"role":"Gossiper","dwell_ms":600,"events":12},
"tick":{"role":"Ticker","dwell_ms":300,"events":3}},
"flows":{"messages":10,"roots":4,"max_depth":3,"records_dropped":0,
"per_method":{"ack":4,"gossip":6}}}]}
]=])

# A bracket argument drops the newline right after its opening bracket, so
# the blank first line of each text is the view's leading "\n".
set(expected_top [=[

Sys — where does the virtual time go?
  total virtual time 1000 ms across 2 runs
  component                    role class                dwell(ms)     events    share
  gossip-round                 Gossiper                        600         12    60.0%
  tick                         Ticker                          300          3    30.0%
]=])
set(expected_flows [=[

Sys — causal message flows
  deliveries 10 | roots 4 | max depth 3 | records dropped 0
  method                                     deliveries    share
  gossip                                              6    60.0%
  ack                                                 4    40.0%
]=])

foreach(view top flows)
  execute_process(COMMAND "${CTSTAT}" "${OUT}/snapshot.json" --${view}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "ctstat --${view} exited '${result}', want 0\nstderr:\n${err}")
  endif()
  if(NOT out STREQUAL expected_${view})
    message(FATAL_ERROR "ctstat --${view} printed\n${out}\nwant\n${expected_${view}}")
  endif()
endforeach()
