# Drives the phpsafe_serve binary the way an editor or CI loop does: stdin
# mode with every flag set must replay the session golden transcript, and a
# flag without its value must be a usage error (exit 2).
#
#   cmake -DSERVE=<path to phpsafe_serve> -DGOLDEN_DIR=<tests/golden>
#         -P serve_tool_test.cmake
execute_process(
  COMMAND ${SERVE} --deterministic --workers 1 --max-queue 4
  INPUT_FILE ${GOLDEN_DIR}/ndjson_session.in
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "phpsafe_serve exited with ${status}")
endif()
file(READ ${GOLDEN_DIR}/ndjson_session.out expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "phpsafe_serve output differs from ndjson_session.out:\n${actual}")
endif()

execute_process(
  COMMAND ${SERVE} --workers
  RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR
    "phpsafe_serve --workers without a value exited with ${status}, not 2")
endif()
