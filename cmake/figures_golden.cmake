# `duet_sim --figures` golden test: one run regenerates every artifact.
# The six Sec. V-C / Table / ablation CSVs must match
# ${GOLDEN_DIR}/figures/<name>.csv byte for byte. fig12.csv holds the 39
# Fig. 12 rows the three sweep goldens (fig12_sweep, fig12_scaling_cores,
# fig12_scaling_sort) already pin, so it is checked against their union
# as a set instead of through a fourth copy.
#
# Usage:
#   cmake -DDUET_SIM=<path> -DOUT_DIR=<dir> -DGOLDEN_DIR=<dir> \
#         -P cmake/figures_golden.cmake

cmake_minimum_required(VERSION 3.16) # IN_LIST, list(POP_FRONT)

if(NOT DUET_SIM OR NOT OUT_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "need -DDUET_SIM=, -DOUT_DIR= and -DGOLDEN_DIR=")
endif()

file(REMOVE_RECURSE ${OUT_DIR})
execute_process(
  COMMAND ${DUET_SIM} --figures ${OUT_DIR}
  OUTPUT_FILE ${OUT_DIR}.txt
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "duet_sim --figures exited with ${rv}")
endif()

foreach(name fig9 fig10 fig11 table1 table2 ablation)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/${name}.csv ${GOLDEN_DIR}/figures/${name}.csv
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT_DIR}/${name}.csv differs from the golden "
                        "${GOLDEN_DIR}/figures/${name}.csv")
  endif()
endforeach()

file(STRINGS ${OUT_DIR}/fig12.csv got)
list(POP_FRONT got got_header)
set(want "")
foreach(golden fig12_sweep fig12_scaling_cores fig12_scaling_sort)
  file(STRINGS ${GOLDEN_DIR}/${golden}.csv lines)
  list(POP_FRONT lines header)
  if(NOT header STREQUAL got_header)
    message(FATAL_ERROR "fig12.csv header '${got_header}' differs from "
                        "${golden}.csv's '${header}'")
  endif()
  list(APPEND want ${lines})
endforeach()
list(SORT got)
list(SORT want)
if(NOT got STREQUAL want)
  foreach(row IN LISTS got)
    if(NOT row IN_LIST want)
      message(STATUS "fig12.csv row not in the goldens: ${row}")
    endif()
  endforeach()
  foreach(row IN LISTS want)
    if(NOT row IN_LIST got)
      message(STATUS "golden row missing from fig12.csv: ${row}")
    endif()
  endforeach()
  message(FATAL_ERROR "fig12.csv rows differ from the Fig. 12 goldens")
endif()

list(LENGTH got rows)
message(STATUS "figures golden OK: 6 byte-identical CSVs, ${rows} Fig. 12 "
               "rows in ${OUT_DIR}")
