# Runs one bench with `--csv --scale=${SCALE}` and compares its stdout byte
# for byte with the committed golden file. Invoked by ctest as
#   cmake -DBENCH=<exe> -DSCALE=<f> -DGOLDEN=<csv> -DACTUAL=<out> -P <this>
# On a mismatch the fresh output stays at ${ACTUAL} and a unified diff is
# printed when `diff` is on the PATH. Intended moves are recorded with
# scripts/regen_golden.py.
execute_process(
  COMMAND ${BENCH} --csv --scale=${SCALE}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --csv --scale=${SCALE} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_EXE diff)
  if(DIFF_EXE)
    execute_process(COMMAND ${DIFF_EXE} -u ${GOLDEN} ${ACTUAL})
  endif()
  message(FATAL_ERROR
    "simulated output of ${BENCH} at --scale=${SCALE} differs from ${GOLDEN} "
    "(fresh output: ${ACTUAL}). If the move is intended, regenerate with "
    "scripts/regen_golden.py and name the moved rows in CHANGES.md.")
endif()
