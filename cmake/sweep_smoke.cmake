# Sweep smoke test: run the same `duet_sim --sweep` cross-product
# twice — serially (--jobs 1) and through the parallel executor
# (--jobs N) — assert the aggregated CSV has exactly one data row per
# scenario, and require the two runs to be byte-identical (the
# executor's scenario-order reassembly guarantee).
#
# With GOLDEN set, both runs also write JSON lines, and every CSV and
# JSONL output must match ${GOLDEN}.csv / ${GOLDEN}.jsonl byte for byte:
# a committed reference that a refactor of the simulator must reproduce
# exactly.
#
# Usage:
#   cmake -DDUET_SIM=<path> -DCSV=<path> -DEXPECT_ROWS=<n> \
#         -DWORKLOADS=<a,b,...> -DMODES=<m,...> [-DSIZE=<n,...>] \
#         [-DCORES=<n,...>] [-DJOBS=<n>] [-DGOLDEN=<path prefix>] \
#         -P cmake/sweep_smoke.cmake
#
# SIZE and CORES unset run every workload at its registry defaults.

if(NOT DUET_SIM OR NOT CSV OR NOT EXPECT_ROWS OR NOT WORKLOADS OR NOT MODES)
  message(FATAL_ERROR
          "need -DDUET_SIM=, -DCSV=, -DEXPECT_ROWS=, -DWORKLOADS= and -DMODES=")
endif()
if(NOT JOBS)
  set(JOBS 4)
endif()
set(size_args "")
if(SIZE)
  set(size_args --size ${SIZE})
endif()
set(cores_args "")
if(CORES)
  set(cores_args --cores ${CORES})
endif()
set(CSV_PAR "${CSV}.j${JOBS}")

foreach(pass "1;${CSV}" "${JOBS};${CSV_PAR}")
  list(GET pass 0 jobs)
  list(GET pass 1 out)
  set(jsonl_args "")
  if(GOLDEN)
    set(jsonl_args --jsonl ${out}.jsonl)
  endif()
  execute_process(
    COMMAND ${DUET_SIM} --sweep
            --workload ${WORKLOADS} --mode ${MODES} ${size_args} ${cores_args}
            --jobs ${jobs} --csv ${out} ${jsonl_args}
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "duet_sim --sweep --jobs ${jobs} exited with ${rv}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${CSV} ${CSV_PAR}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "--jobs 1 and --jobs ${JOBS} sweeps are not byte-identical "
          "(${CSV} vs ${CSV_PAR})")
endif()

if(GOLDEN)
  foreach(out ${CSV} ${CSV_PAR})
    foreach(pair "${out};${GOLDEN}.csv" "${out}.jsonl;${GOLDEN}.jsonl")
      list(GET pair 0 got)
      list(GET pair 1 want)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${want}
        RESULT_VARIABLE differs)
      if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${got} differs from the golden ${want}")
      endif()
    endforeach()
  endforeach()
endif()

file(STRINGS ${CSV} lines)
list(LENGTH lines total)
math(EXPR data_rows "${total} - 1") # minus the header line
if(NOT data_rows EQUAL ${EXPECT_ROWS})
  message(FATAL_ERROR
          "expected ${EXPECT_ROWS} CSV data rows in ${CSV}, got ${data_rows}")
endif()

list(GET lines 0 header)
if(NOT header MATCHES
   "^workload,.*,runtime_ticks,runtime_ns,speedup,area_mm2,adp_norm,correct$")
  message(FATAL_ERROR "unexpected CSV header: ${header}")
endif()

foreach(line IN LISTS lines)
  if(line MATCHES ",false$")
    message(FATAL_ERROR "sweep produced an incorrect scenario: ${line}")
  endif()
endforeach()

message(STATUS
        "sweep smoke OK: ${data_rows} scenarios, -j1 == -j${JOBS}, in ${CSV}")
