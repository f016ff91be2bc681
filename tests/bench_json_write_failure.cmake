# Runs bench_multicrash --static-only with its --json path already taken by a
# directory. Expects a nonzero exit status and the path named on stderr.
#
#   cmake -DBENCH=<bench_multicrash binary> -DOUT=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}/records.json")
execute_process(COMMAND "${BENCH}" --static-only --json "${OUT}/records.json"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(result EQUAL 0)
  message(FATAL_ERROR "bench_multicrash exited 0 after a failed write\nstdout:\n${out}")
endif()
string(FIND "${err}" "${OUT}/records.json" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${OUT}/records.json:\n${err}")
endif()
