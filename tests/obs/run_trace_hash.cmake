# Trace byte pin, invoked by ctest:
#
#   cmake -DBIN=<tmc_cli> -DTRACE=<out.json> -DCHUNK=<n> -DSHA256=<hex>
#         -P run_trace_hash.cmake
#
# Runs the CI observability smoke command (matmul on the adaptive
# architecture, hybrid policy, 4-node partitions, mesh) with the timeline
# armed -- buffered when CHUNK is 0, else drained every CHUNK records -- and
# fails unless the trace's SHA-256 equals SHA256. The trace holds every
# record kind (M, X, i, C, b, e, s, f), so a change to any part of the
# encoder that moves a byte fails here, buffered or chunked.
foreach(var BIN TRACE CHUNK SHA256)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_hash.cmake: -D${var}=... is required")
  endif()
endforeach()

set(args --app matmul --arch adaptive --policy hybrid --partition 4
         --topology mesh --timeline=${TRACE})
if(NOT CHUNK EQUAL 0)
  list(APPEND args --timeline-chunk ${CHUNK})
endif()

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

file(SHA256 "${TRACE}" actual)
if(NOT actual STREQUAL SHA256)
  message(FATAL_ERROR
    "trace bytes drifted (chunk ${CHUNK}): SHA-256 ${actual}, expected "
    "${SHA256}; the trace is kept at ${TRACE} -- diff it against the same "
    "run at the parent commit, and re-pin only if the change is intended")
endif()
