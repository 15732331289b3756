# Runs the shell over a script and compares the transcript byte-for-byte
# against a committed golden file. Invoked by ctest (see CMakeLists.txt):
#   cmake -DSHELL=... -DDEMO=... -DGOLDEN=... -DSERVE_WORKERS=N -P run_golden.cmake
if(SERVE_WORKERS GREATER 0)
  set(extra_args --serve ${SERVE_WORKERS})
else()
  set(extra_args "")
endif()
execute_process(
  COMMAND ${SHELL} ${extra_args}
  INPUT_FILE ${DEMO}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "strq_shell exited with ${code}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  file(WRITE ${CMAKE_BINARY_DIR}/shell_demo_actual.txt "${got}")
  message(FATAL_ERROR
    "shell transcript differs from ${GOLDEN}; "
    "actual output written to ${CMAKE_BINARY_DIR}/shell_demo_actual.txt")
endif()
