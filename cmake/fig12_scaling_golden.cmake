# The six Fig. 12 configurations that sweep.fig12_golden leaves out,
# as two sweeps checked by sweep_smoke.cmake against committed goldens:
# pdes and bfs at 8 and 16 cores (where the MCS-lock and barrier spin
# loops run hottest), and sort at 32 and 128 elements, all three modes.
#
# Usage:
#   cmake -DDUET_SIM=<path> -DOUT_DIR=<dir> -DGOLDEN_DIR=<dir> \
#         -P cmake/fig12_scaling_golden.cmake

if(NOT DUET_SIM OR NOT OUT_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "need -DDUET_SIM=, -DOUT_DIR= and -DGOLDEN_DIR=")
endif()
set(MODES all)
set(JOBS 4)

set(WORKLOADS pdes,bfs)
set(CORES 8,16)
set(EXPECT_ROWS 12)
set(CSV ${OUT_DIR}/sweep_fig12_cores.csv)
set(GOLDEN ${GOLDEN_DIR}/fig12_scaling_cores)
include(${CMAKE_CURRENT_LIST_DIR}/sweep_smoke.cmake)

set(WORKLOADS sort)
unset(CORES)
set(SIZE 32,128)
set(EXPECT_ROWS 6)
set(CSV ${OUT_DIR}/sweep_fig12_sort.csv)
set(GOLDEN ${GOLDEN_DIR}/fig12_scaling_sort)
include(${CMAKE_CURRENT_LIST_DIR}/sweep_smoke.cmake)
