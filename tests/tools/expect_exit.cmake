# Runs EXE with the argument ARG (plus ARG2, when set) and fails unless it
# exits with code EXPECT and prints text matching MATCH on stderr. Used by
# the CLI input validation tests (tools/CMakeLists.txt):
#   cmake -DEXE=path -DARG=--flag=value [-DARG2=--other=value] -DEXPECT=2
#         -DMATCH=regex -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}" ${ARG2}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARG} ${ARG2}: exit ${code}, want ${EXPECT}\n${err}")
endif()
if(NOT "${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${EXE} ${ARG} ${ARG2}: stderr does not match '${MATCH}':\n${err}")
endif()
