# Runs BIN with ARGS and fails unless it exits with exactly EXPECTED and
# prints a message matching STDERR_REGEX on stderr. ctest's WILL_FAIL only
# tells zero from non-zero, so an abort (status 134) on a bad flag would
# pass it; the CLI contract is "a usage error exits 2 with a message".
#
#   cmake -DBIN=path/to/binary "-DARGS=--cycle abc" -DEXPECTED=2 \
#         "-DSTDERR_REGEX=flag --cycle" -P expect_exit_status.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "'${BIN} ${ARGS}': expected exit status ${EXPECTED}, "
                      "got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "'${BIN} ${ARGS}': stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()
