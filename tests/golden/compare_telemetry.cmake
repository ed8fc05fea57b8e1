# Runs telemetry_exports into ${ACTUAL_DIR} and compares each run's .prom and
# .csv byte for byte with the committed golden files. Invoked by ctest as
#   cmake -DEXPORTER=<exe> -DGOLDEN_DIR=<dir> -DACTUAL_DIR=<dir> -P <this>
# On a mismatch the fresh exports stay in ${ACTUAL_DIR} and a unified diff is
# printed when `diff` is on the PATH. Intended moves are recorded with
# scripts/regen_golden.py.
execute_process(
  COMMAND ${EXPORTER} ${ACTUAL_DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXPORTER} ${ACTUAL_DIR} exited with ${rc}")
endif()

set(failed "")
foreach(run default all_families)
  foreach(ext prom csv)
    set(name telemetry_${run}.${ext})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN_DIR}/${name}
              ${ACTUAL_DIR}/${name}
      RESULT_VARIABLE differs)
    if(differs)
      find_program(DIFF_EXE diff)
      if(DIFF_EXE)
        execute_process(
          COMMAND ${DIFF_EXE} -u ${GOLDEN_DIR}/${name} ${ACTUAL_DIR}/${name})
      endif()
      list(APPEND failed ${name})
    endif()
  endforeach()
endforeach()
if(failed)
  message(FATAL_ERROR
    "telemetry exports differ from ${GOLDEN_DIR}: ${failed} (fresh exports: "
    "${ACTUAL_DIR}). If the move is intended, regenerate with "
    "scripts/regen_golden.py and name the moved rows in CHANGES.md.")
endif()
