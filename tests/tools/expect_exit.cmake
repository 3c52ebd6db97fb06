# Runs EXE with the space-separated ARGS in a fresh directory WORKDIR and
# fails unless it exits with code EXPECT and prints text matching MATCH
# (stdout, then stderr). When FILE is set, the file the run wrote under
# that name must match FILE_MATCH. When SETUP is set, EXE first runs once
# with those arguments in WORKDIR (its status is not checked), e.g. to
# leave a journal behind. Used by the CLI tests (tools/CMakeLists.txt):
#   cmake -DEXE=path "-DARGS=--flag=a --other=b" -DWORKDIR=dir -DEXPECT=2
#         -DMATCH=regex [-DFILE=out.json -DFILE_MATCH=regex]
#         ["-DSETUP=--flag=c"] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
if(DEFINED SETUP)
  separate_arguments(setup UNIX_COMMAND "${SETUP}")
  execute_process(COMMAND "${EXE}" ${setup} WORKING_DIRECTORY "${WORKDIR}"
                  OUTPUT_QUIET ERROR_QUIET)
endif()
execute_process(COMMAND "${EXE}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${code}, want ${EXPECT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${EXE} ${ARGS}: output does not match '${MATCH}':\n${out}${err}")
endif()
if(DEFINED FILE)
  file(READ "${WORKDIR}/${FILE}" content)
  if(NOT "${content}" MATCHES "${FILE_MATCH}")
    message(FATAL_ERROR "${EXE} ${ARGS}: ${FILE} does not match '${FILE_MATCH}'")
  endif()
endif()
