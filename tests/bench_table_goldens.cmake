# Runs the bench tables and the approach comparison and compares each stdout
# with its expected file under tests/golden/. The tables are deterministic
# except Table 11's four wall-clock columns (Analysis(s), Wall(s),
# Test wall(s), Par wall(s)); each of those fields, with its padding, is
# masked to the same width as "<wall>" before the comparison. On a mismatch
# the masked stdout is left in OUT/<name>.txt: diff it against the expected
# file, and copy it over that file to re-record.
#
#   cmake -DBENCH_DIR=<bench binary dir> -DCOMPARE=<compare_approaches binary>
#         -DGOLDEN_DIR=<tests/golden> -DOUT=<work dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

set(number "[0-9]+\\.[0-9]+")
set(table11_row
    "([A-Za-z0-9/]+)( +${number})( +${number} +${number})( +${number})( +${number})( +${number})")

# A padded field becomes spaces and "<wall>", so the row keeps its width.
function(mask_field field out_var)
  string(LENGTH "${field}" length)
  math(EXPR pad "${length} - 6")
  string(REPEAT " " ${pad} spaces)
  set(${out_var} "${spaces}<wall>" PARENT_SCOPE)
endfunction()

set(failures "")
function(check_stdout name)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${name} exited '${result}', want 0\nstderr:\n${err}")
  endif()
  string(REGEX MATCHALL "${table11_row}" rows "${out}")
  foreach(row IN LISTS rows)
    string(REGEX MATCH "^${table11_row}$" matched "${row}")
    mask_field("${CMAKE_MATCH_2}" analysis)
    mask_field("${CMAKE_MATCH_4}" wall)
    mask_field("${CMAKE_MATCH_5}" test_wall)
    mask_field("${CMAKE_MATCH_6}" par_wall)
    string(REPLACE "${row}"
           "${CMAKE_MATCH_1}${analysis}${CMAKE_MATCH_3}${wall}${test_wall}${par_wall}"
           out "${out}")
  endforeach()
  file(WRITE "${OUT}/${name}.txt" "${out}")
  set(expected "")
  if(EXISTS "${GOLDEN_DIR}/${name}.txt")
    file(READ "${GOLDEN_DIR}/${name}.txt" expected)
  endif()
  if(NOT out STREQUAL expected)
    set(failures "${failures}  ${OUT}/${name}.txt differs from ${GOLDEN_DIR}/${name}.txt\n"
        PARENT_SCOPE)
  endif()
endfunction()

check_stdout(bench_table5_new_bugs "${BENCH_DIR}/bench_table5_new_bugs")
check_stdout(bench_table7_random_injection_40 "${BENCH_DIR}/bench_table7_random_injection" 40)
check_stdout(bench_table9_io_injection "${BENCH_DIR}/bench_table9_io_injection")
check_stdout(bench_table10_crash_points "${BENCH_DIR}/bench_table10_crash_points")
check_stdout(bench_multicrash "${BENCH_DIR}/bench_multicrash")
check_stdout(bench_multicrash_static_only "${BENCH_DIR}/bench_multicrash" --static-only)
check_stdout(compare_approaches "${COMPARE}")

if(failures)
  message(FATAL_ERROR "bench tables moved:\n${failures}")
endif()
