# Runs ctstat --check on snapshots that are valid v4 but for one field each:
# a negative counter, a fractional histogram max, and a bucket count past
# 2^53 (a JSON number cannot hold it exactly); then a wall section that is
# not an object, and wall seconds or rates that are not finite non-negative
# numbers. Each must exit 1 with a failure naming the field, not wrap,
# truncate or render the value. Last, a v3 snapshot must fail on its schema
# tag.
#
#   cmake -DCTSTAT=<ctstat binary> -DOUT=<work dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

# The snapshot with @COUNTER@, @COUNT1@, @MAX@ and @WALL@ substituted. @WALL@
# is empty or a `,"wall":...` member.
set(template [=[
{"schema":"crashtuner-metrics-v4","systems":[{"system":"Sys","runs":2,
"counters":{"run.count":@COUNTER@},"gauges":{},
"histograms":{"run.virtual_ms":{"bounds":[100,1000],"counts":[0,@COUNT1@,0],"count":2,
"sum":1000,"max":@MAX@}},
"flows":{"messages":0,"roots":0,"max_depth":0,"records_dropped":0,"per_method":{}}@WALL@}]}
]=])

# expect_check_failure(name snapshot want): ctstat --check on `snapshot` must
# exit 1 and print the failure `want`.
function(expect_check_failure name snapshot want)
  file(WRITE "${OUT}/${name}.json" "${snapshot}")
  execute_process(COMMAND "${CTSTAT}" "${OUT}/${name}.json" --check
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 1)
    message(FATAL_ERROR "${name}: ctstat exited '${result}', want 1\n${out}${err}")
  endif()
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name}: no failure '${want}' in\n${out}")
  endif()
endfunction()

# expect_failure(name counter count1 max want [wall])
function(expect_failure name counter count1 max want)
  set(COUNTER "${counter}")
  set(COUNT1 "${count1}")
  set(MAX "${max}")
  set(WALL "${ARGN}")
  string(CONFIGURE "${template}" snapshot @ONLY)
  expect_check_failure(${name} "${snapshot}" "${want}")
endfunction()

expect_failure(negative -3 2 600
  [=[systems[0]: counter "run.count" is -3, not an integer in [0, 9007199254740991]]=])
expect_failure(fractional 2 2 2.5
  [=[systems[0].run.virtual_ms: max is 2.5, not an integer in [0, 9007199254740991]]=])
expect_failure(past_2_53 2 9007199254740993 600
  [=[systems[0].run.virtual_ms: counts[1] is 9007199254740992, not an integer]=])

# The wall section: every value but the one under test is well formed.
function(expect_wall_failure name wall want)
  expect_failure(${name} 2 2 600 "${want}" "${wall}")
endfunction()

expect_wall_failure(wall_not_object [=[,"wall":[1]]=]
  [=[systems[0]: "wall" is not an object]=])
expect_wall_failure(campaign_seconds_string
  [=[,"wall":{"jobs":1,"campaign_seconds":"fast","runs_per_second":1,"phases":{},"driver":{}}]=]
  [=[systems[0]: wall.campaign_seconds is not a number]=])
expect_wall_failure(runs_per_second_negative
  [=[,"wall":{"jobs":1,"campaign_seconds":2,"runs_per_second":-4,"phases":{},"driver":{}}]=]
  [=[systems[0]: wall.runs_per_second is -4, not a finite non-negative number]=])
expect_wall_failure(phase_string
  [=[,"wall":{"jobs":1,"campaign_seconds":2,"runs_per_second":1,"phases":{"recovery-check":"x"},"driver":{}}]=]
  [=[systems[0]: wall.phases.recovery-check is not a number]=])
expect_wall_failure(phase_negative
  [=[,"wall":{"jobs":1,"campaign_seconds":2,"runs_per_second":1,"phases":{"workload":-2.5},"driver":{}}]=]
  [=[systems[0]: wall.phases.workload is -2.5, not a finite non-negative number]=])
expect_wall_failure(phases_not_object
  [=[,"wall":{"jobs":1,"campaign_seconds":2,"runs_per_second":1,"phases":7,"driver":{}}]=]
  [=[systems[0]: "wall.phases" is not an object]=])
expect_wall_failure(driver_null
  [=[,"wall":{"jobs":1,"campaign_seconds":2,"runs_per_second":1,"phases":{},"driver":{"analysis":null}}]=]
  [=[systems[0]: wall.driver.analysis is not a number]=])

# v3 carried component dwell as `components`; v4 dropped it, so a v3 file
# fails on its tag however well formed the rest is.
expect_check_failure(schema_v3 [=[
{"schema":"crashtuner-metrics-v3","systems":[{"system":"Sys","runs":2,
"counters":{},"gauges":{},"histograms":{},
"components":{"tick":{"role":"Ticker","dwell_ms":300,"events":3}},
"flows":{"messages":0,"roots":0,"max_depth":0,"records_dropped":0,"per_method":{}}}]}
]=] [=[root: schema is "crashtuner-metrics-v3", expected "crashtuner-metrics-v4"]=])
