# Runs ctstat --check --json on a valid v4 snapshot whose system name and one
# phase name hold '"' and '\'. Expects exit status 0 and a summary that
# string(JSON) parses, with both names read back unchanged.
#
#   cmake -DCTSTAT=<ctstat binary> -DOUT=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
file(WRITE "${OUT}/snapshot.json" [=[
{"schema":"crashtuner-metrics-v4","systems":[{"system":"Yarn \"rm\" C:\\work","runs":1,
"counters":{},"gauges":{},"histograms":{},
"flows":{"messages":0,"roots":0,"max_depth":0,"records_dropped":0,"per_method":{}},
"wall":{"jobs":1,"campaign_seconds":2.0,"runs_per_second":0.5,
"phases":{"workload \"cold\" a\\b":1.0},"driver":{}}}]}
]=])
execute_process(COMMAND "${CTSTAT}" "${OUT}/snapshot.json" --check --json "${OUT}/summary.json"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "ctstat exited '${result}', want 0\nstdout:\n${out}\nstderr:\n${err}")
endif()
file(READ "${OUT}/summary.json" summary)
string(JSON system ERROR_VARIABLE parse_error GET "${summary}" systems 0 system)
if(parse_error)
  message(FATAL_ERROR "summary does not parse: ${parse_error}\n${summary}")
endif()
if(NOT system STREQUAL [=[Yarn "rm" C:\work]=])
  message(FATAL_ERROR "system name read back as '${system}'\n${summary}")
endif()
string(JSON phase ERROR_VARIABLE parse_error MEMBER "${summary}" systems 0 phase_wall_share 0)
if(parse_error OR NOT phase STREQUAL [=[workload "cold" a\b]=])
  message(FATAL_ERROR "phase name read back as '${phase}' ${parse_error}\n${summary}")
endif()
