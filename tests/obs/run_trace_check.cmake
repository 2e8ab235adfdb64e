# Trace contract check of a stepped run, invoked by ctest:
#
#   cmake -DBIN=<tmc_cli> -DPYTHON=<python3> -DTOOLS=<tools dir>
#         -DTRACE=<out.json> "-DARGS=<tmc_cli flags>"
#         [-DSORTED_SHA256=<hex>] -P run_trace_check.cmake
#
# Runs tmc_cli with ARGS and the timeline armed, then validates the trace
# with check_obs_json.py --timeline, which also requires that the spans on
# each node track never overlap. With SORTED_SHA256 it also pins the
# trace's events regardless of their order (check_obs_json.py
# --sorted-sha256).
foreach(var BIN PYTHON TOOLS TRACE ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_check.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
list(APPEND args --timeline=${TRACE})

file(REMOVE "${TRACE}")
execute_process(
  COMMAND "${BIN}" ${args}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${args} exited with ${rc}\nstderr:\n${err}")
endif()

set(check "${TOOLS}/check_obs_json.py" --timeline "${TRACE}")
if(DEFINED SORTED_SHA256)
  list(APPEND check --sorted-sha256 "${SORTED_SHA256}")
endif()
execute_process(
  COMMAND "${PYTHON}" ${check}
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_obs_json.py rejected ${TRACE} (${rc})")
endif()
file(REMOVE "${TRACE}")
