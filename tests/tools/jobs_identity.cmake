# Runs EXE with the space-separated ARGS once with --jobs=1 and once with
# --jobs=3, each in its own fresh directory under WORKDIR, and fails unless
# both exit with the same status (0, 1 or 3 — never a crash) and stdout and
# every file the runs wrote are byte-identical. Used by the addc_sim
# jobs-identity tests (tools/CMakeLists.txt):
#   cmake -DEXE=path "-DARGS=--reps=2 --csv" -DWORKDIR=dir
#         -P jobs_identity.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(jobs 1 3)
  set(dir "${WORKDIR}/jobs${jobs}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${EXE}" ${args} --jobs=${jobs}
                  WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE code
                  OUTPUT_FILE "${dir}/stdout"
                  ERROR_VARIABLE err)
  if(NOT "${code}" MATCHES "^[013]$")
    message(FATAL_ERROR "${EXE} ${ARGS} --jobs=${jobs}: exit ${code}\n${err}")
  endif()
  file(WRITE "${dir}/exit_status" "${code}")
endforeach()
file(GLOB_RECURSE serial RELATIVE "${WORKDIR}/jobs1" "${WORKDIR}/jobs1/*")
file(GLOB_RECURSE parallel RELATIVE "${WORKDIR}/jobs3" "${WORKDIR}/jobs3/*")
if(NOT "${serial}" STREQUAL "${parallel}")
  message(FATAL_ERROR "${ARGS}: --jobs=1 wrote [${serial}], --jobs=3 wrote [${parallel}]")
endif()
foreach(name IN LISTS serial)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORKDIR}/jobs1/${name}" "${WORKDIR}/jobs3/${name}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${ARGS}: ${name} differs between --jobs=1 and --jobs=3")
  endif()
endforeach()
