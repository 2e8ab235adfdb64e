# Exit-code check for a binary's flag handling, invoked by ctest:
#
#   cmake -DBIN=<binary> "-DARGS=--flag value" -DEXPECT=<code>
#         [-DSTDERR=<regex>] [-DSTDOUT=<regex>] -P run_exit_code.cmake
#
# Fails unless the binary exits with exactly EXPECT and, when STDERR or
# STDOUT is non-empty, that stream matches the regex. A process killed by a signal
# reports a string such as "Child aborted", never a number, so an abort or
# a crash cannot pass where WILL_FAIL would have let it.
foreach(var BIN EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_exit_code.cmake: -D${var}=... is required")
  endif()
endforeach()

set(arg_list "")
if(DEFINED ARGS)
  separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
endif()

execute_process(
  COMMAND "${BIN}" ${arg_list}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: expected exit ${EXPECT}, got '${rc}'\n"
    "stderr:\n${err}")
endif()
if(NOT "${STDERR}" STREQUAL "" AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: stderr does not match '${STDERR}'\n"
    "stderr:\n${err}")
endif()
if(NOT "${STDOUT}" STREQUAL "" AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: stdout does not match '${STDOUT}'\n"
    "stdout:\n${out}")
endif()
