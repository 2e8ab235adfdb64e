# Trace contract check of a stepped run, invoked by ctest:
#
#   cmake -DBIN=<tmc_cli> -DPYTHON=<python3> -DTOOLS=<tools dir>
#         -DTRACE=<out.json> -P run_trace_check.cmake
#
# Runs matmul on the fixed architecture under the static policy (one
# process per node, so every burst is a stepped charge and every switch
# into one is folded) with the timeline armed, then validates the trace
# with check_obs_json.py --timeline, which also requires that the spans on
# each node track never overlap.
foreach(var BIN PYTHON TOOLS TRACE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_check.cmake: -D${var}=... is required")
  endif()
endforeach()

set(args --app matmul --arch fixed --policy static --partition 4
         --topology mesh --timeline=${TRACE})

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

execute_process(
  COMMAND "${PYTHON}" "${TOOLS}/check_obs_json.py" --timeline "${TRACE}"
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_obs_json.py --timeline rejected ${TRACE} (${rc})")
endif()
file(REMOVE "${TRACE}")
