# Runs bench_table5_new_bugs --dossier-dir. Its YARN campaign is labelled
# "Hadoop2/Yarn", so the dossiers must land in the directory itself as
# Hadoop2_Yarn-slot<N>.json. Expects exit status 0 and at least one such file
# that string(JSON) parses.
#
#   cmake -DBENCH=<bench_table5_new_bugs binary> -DOUT=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${BENCH}" --dossier-dir "${OUT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "bench_table5_new_bugs exited '${result}', want 0\nstderr:\n${err}")
endif()
file(GLOB dossiers "${OUT}/Hadoop2_Yarn-slot*.json")
if(NOT dossiers)
  message(FATAL_ERROR "no ${OUT}/Hadoop2_Yarn-slot*.json written")
endif()
foreach(path IN LISTS dossiers)
  file(READ "${path}" text)
  string(JSON system ERROR_VARIABLE parse_error GET "${text}" system)
  if(parse_error OR NOT system STREQUAL "Hadoop2/Yarn")
    message(FATAL_ERROR "${path}: system '${system}' ${parse_error}\n${text}")
  endif()
endforeach()
