# Heap call-site tracker smoke run, invoked by ctest:
#
#   cmake -DBIN=<tmc_cli> -DLIB=<libheap_sites.so> -DPYTHON=<python3>
#         -DSCRIPT=<heap_sites.py> -DREPORT=<out.txt> "-DARGS=<tmc_cli flags>"
#         -P run_heap_sites.cmake
#
# Runs tmc_cli with ARGS under the tracker, then groups the report with
# heap_sites.py, which must print a positive live-heap peak and at least
# one site holding live bytes.
foreach(var BIN LIB PYTHON SCRIPT REPORT ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_heap_sites.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${REPORT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${LIB} HEAP_SITES_OUT=${REPORT}
          "${BIN}" ${args}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${args} under ${LIB} exited with ${rc}\n${err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${SCRIPT}" "${REPORT}" --top 5
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "heap_sites.py exited with ${rc}\n${err}")
endif()
if(NOT out MATCHES "peak live heap: [1-9][0-9]* B")
  message(FATAL_ERROR "no live-heap peak in the report")
endif()
if(NOT out MATCHES "\n +[1-9][0-9]* +[1-9][0-9]*  [^\n]+")
  message(FATAL_ERROR "no site with live bytes in the report")
endif()
