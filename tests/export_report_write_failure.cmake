# Runs export_report into a directory where the YARN markdown report and the
# HDFS JSON report paths already exist as directories. Expects exit status 1,
# both paths named on stderr, and the other systems' reports still written.
#
#   cmake -DEXPORT_REPORT=<export_report binary> -DOUT=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}/Hadoop2_Yarn.md" "${OUT}/HDFS.json")
execute_process(COMMAND "${EXPORT_REPORT}" "${OUT}"
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 1)
  message(FATAL_ERROR "export_report exited '${result}', want 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
foreach(path "${OUT}/Hadoop2_Yarn.md" "${OUT}/HDFS.json")
  string(FIND "${err}" "${path}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${path}:\n${err}")
  endif()
endforeach()
if(NOT EXISTS "${OUT}/HBase.json")
  message(FATAL_ERROR "a failed write stopped the remaining systems' reports")
endif()
