# Drives the phpsafe_fuzz binary the way CI's fuzz job does: --replay-only
# run from a directory other than the repo root must still find the
# regression corpus and replay every .case file in it clean, and a
# --corpus path that does not exist must fail rather than replay nothing.
#
#   cmake -DFUZZ=<path to phpsafe_fuzz> -DCORPUS_DIR=<regressions dir>
#         -DWORK_DIR=<any directory but the repo root>
#         -P fuzz_tool_test.cmake
file(GLOB cases ${CORPUS_DIR}/*.case)
list(LENGTH cases expected)
if(expected EQUAL 0)
  message(FATAL_ERROR "no .case files in ${CORPUS_DIR}")
endif()

execute_process(
  COMMAND ${FUZZ} --replay-only
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "phpsafe_fuzz --replay-only exited with ${status}:\n${actual}")
endif()
string(FIND "${actual}" "corpus: ${expected} replayed, 0 violation(s)" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "phpsafe_fuzz --replay-only did not replay all ${expected} cases clean:\n${actual}")
endif()

execute_process(
  COMMAND ${FUZZ} --replay-only --corpus ${WORK_DIR}/no-such-corpus
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET)
if(status EQUAL 0)
  message(FATAL_ERROR
    "phpsafe_fuzz --replay-only with a missing --corpus exited 0")
endif()
