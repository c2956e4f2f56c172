# Runs `duet_sim --bench` and sanity-checks the report it publishes:
# the file must exist, carry the duet-bench-sim/1 schema marker, cover a
# non-empty scenario set, and have every scenario functionally correct
# and deterministic (all_correct). Wall-time values are host-dependent
# and deliberately not asserted — the report is the artifact CI uploads
# so the trajectory can be compared across commits, not a pass/fail
# threshold.
#
# With REF set, the report must also match that committed reference in
# every scenario's `events` and `sim_ticks` (tools/bench_diff.py exit
# 0): the determinism gate that any change to event semantics trips.
#
# Expected -D variables: DUET_SIM (binary path), OUT (report path);
# optional REF (reference report) with PYTHON3 (interpreter path).

if(NOT DUET_SIM OR NOT OUT)
  message(FATAL_ERROR "perf_smoke: pass -DDUET_SIM=<duet_sim> -DOUT=<path>")
endif()
if(REF AND NOT PYTHON3)
  message(FATAL_ERROR "perf_smoke: -DREF= needs -DPYTHON3=<python3>")
endif()

execute_process(COMMAND ${DUET_SIM} --bench --bench-out ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_smoke: duet_sim --bench exited with ${rc}")
endif()

if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "perf_smoke: --bench-out produced no file at ${OUT}")
endif()
file(READ ${OUT} report)

if(NOT report MATCHES "\"schema\": \"duet-bench-sim/1\"")
  message(FATAL_ERROR "perf_smoke: ${OUT} is missing the schema marker")
endif()
if(NOT report MATCHES "\"all_correct\": true")
  message(FATAL_ERROR "perf_smoke: a scenario failed or was "
                      "non-deterministic; see ${OUT}")
endif()
if(REF)
  execute_process(
    COMMAND ${PYTHON3} ${CMAKE_CURRENT_LIST_DIR}/../tools/bench_diff.py
            ${REF} ${OUT}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke: ${OUT} drifted from ${REF} "
                        "(tools/bench_diff.py exited with ${rc})")
  endif()
endif()
string(REGEX MATCH "\"scenarios\": ([0-9]+)" _scen "${report}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "perf_smoke: ${OUT} reports an empty scenario set")
endif()

message(STATUS "perf_smoke: ${CMAKE_MATCH_1} scenarios OK -> ${OUT}")
