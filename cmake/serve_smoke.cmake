# Serve smoke test: pipe a canned 13-request JSONL batch — 9 valid
# scenarios (one of them with the id "type", which must not be taken for
# a control line), one unknown workload, two shapes the hardware cannot
# be built with (3 L2 ways: a non-power-of-two set count; a 5 THz clock:
# a zero period) and one deterministic failure (a 1 us simulated-time
# watchdog) — through `duet_sim --serve --jobs 4` and assert the
# protocol contract: one response line per request, the right
# ok/invalid/failed split, the `N served / M failed` summary on stderr,
# and exit status 1 (failures present, but the server survived them).
# Then check the CLI rejects an unbuildable shape as bad usage.
#
# Usage:
#   cmake -DDUET_SIM=<path> -DWORK_DIR=<dir> -P cmake/serve_smoke.cmake

if(NOT DUET_SIM OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDUET_SIM= and -DWORK_DIR=")
endif()

set(REQS ${WORK_DIR}/serve_smoke_requests.jsonl)
set(RESP ${WORK_DIR}/serve_smoke_responses.jsonl)

set(lines "")
foreach(i RANGE 1 4)
  math(EXPR sz "2 + ${i}")
  string(APPEND lines
         "{\"id\": \"p${i}\", \"workload\": \"popcount\", \"size\": ${sz}}\n")
  string(APPEND lines
         "{\"id\": \"t${i}\", \"workload\": \"tangent\", \"size\": ${sz}}\n")
endforeach()
string(APPEND lines
       "{\"id\": \"type\", \"workload\": \"tangent\", \"size\": 4}\n")
string(APPEND lines "{\"id\": \"bad\", \"workload\": \"no-such-workload\"}\n")
string(APPEND lines
       "{\"id\": \"ways\", \"workload\": \"tangent\", \"l2_ways\": 3}\n")
string(APPEND lines
       "{\"id\": \"clock\", \"workload\": \"tangent\", \"cpu_mhz\": 5000000}\n")
string(APPEND lines
       "{\"id\": \"watchdog\", \"workload\": \"bfs\", \"max_us\": 1}\n")
file(WRITE ${REQS} "${lines}")

execute_process(
  COMMAND ${DUET_SIM} --serve --jobs 4
  INPUT_FILE ${REQS}
  OUTPUT_FILE ${RESP}
  ERROR_VARIABLE summary
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 1)
  message(FATAL_ERROR
          "--serve with failing requests should exit 1, got '${rv}' "
          "(stderr: ${summary})")
endif()
if(NOT summary MATCHES "9 served / 4 failed")
  message(FATAL_ERROR "unexpected serve summary: ${summary}")
endif()

file(STRINGS ${RESP} resp_lines)
list(LENGTH resp_lines total)
if(NOT total EQUAL 13)
  message(FATAL_ERROR "expected 13 response lines in ${RESP}, got ${total}")
endif()

set(ok 0)
set(invalid 0)
set(failed 0)
foreach(line IN LISTS resp_lines)
  if(line MATCHES "\"status\": \"ok\"")
    math(EXPR ok "${ok} + 1")
  elseif(line MATCHES "\"status\": \"invalid\"")
    math(EXPR invalid "${invalid} + 1")
  elseif(line MATCHES "\"status\": \"failed\"")
    math(EXPR failed "${failed} + 1")
  endif()
endforeach()
if(NOT ok EQUAL 9 OR NOT invalid EQUAL 3 OR NOT failed EQUAL 1)
  message(FATAL_ERROR
          "expected 9 ok / 3 invalid / 1 failed responses, got "
          "${ok} / ${invalid} / ${failed}")
endif()

# The failure responses answer the requests that caused them, and the
# "type"-id request is served under its own id.
set(saw_type FALSE)
set(saw_bad FALSE)
set(saw_ways FALSE)
set(saw_clock FALSE)
set(saw_watchdog FALSE)
foreach(line IN LISTS resp_lines)
  if(line MATCHES "\"id\": \"type\", \"status\": \"ok\"")
    set(saw_type TRUE)
  endif()
  if(line MATCHES "\"id\": \"bad\", \"status\": \"invalid\"")
    set(saw_bad TRUE)
  endif()
  if(line MATCHES "\"id\": \"ways\", \"status\": \"invalid\"")
    set(saw_ways TRUE)
  endif()
  if(line MATCHES "\"id\": \"clock\", \"status\": \"invalid\"")
    set(saw_clock TRUE)
  endif()
  if(line MATCHES "\"id\": \"watchdog\", \"status\": \"failed\"")
    set(saw_watchdog TRUE)
  endif()
endforeach()
if(NOT saw_bad OR NOT saw_ways OR NOT saw_clock OR NOT saw_watchdog)
  message(FATAL_ERROR "failure responses lost their request ids")
endif()
if(NOT saw_type)
  message(FATAL_ERROR "the request with id \"type\" was not served")
endif()

message(STATUS "serve smoke OK: 13 requests, 9 ok / 3 invalid / 1 failed")

# The single-run CLI validates through the same path: an L3 whose set
# count (3 KiB / 16 B line / 4 ways = 48) is not a power of two is bad
# usage (exit 2 with a diagnostic), not a simulator panic.
execute_process(
  COMMAND ${DUET_SIM} --workload tangent --l3-kib 3
  OUTPUT_QUIET
  ERROR_VARIABLE shape_err
  RESULT_VARIABLE shape_rv)
if(NOT shape_rv EQUAL 2)
  message(FATAL_ERROR
          "--l3-kib 3 should exit 2, got '${shape_rv}' "
          "(stderr: ${shape_err})")
endif()
if(NOT shape_err MATCHES "l3_kib 3")
  message(FATAL_ERROR "--l3-kib 3 diagnostic unexpected: ${shape_err}")
endif()

message(STATUS "serve smoke OK: --l3-kib 3 rejected with exit 2")

# --listen path hygiene: a path that cannot fit sun_path (108 bytes on
# Linux) must be rejected up front with exit 2 and a diagnostic naming
# the limit — not truncated into binding some other path.
string(REPEAT "x" 200 LONG_NAME)
execute_process(
  COMMAND ${DUET_SIM} --serve --listen ${WORK_DIR}/${LONG_NAME}.sock
  INPUT_FILE /dev/null
  OUTPUT_QUIET
  ERROR_VARIABLE long_err
  RESULT_VARIABLE long_rv)
if(NOT long_rv EQUAL 2)
  message(FATAL_ERROR
          "--listen with an oversized path should exit 2, got '${long_rv}' "
          "(stderr: ${long_err})")
endif()
if(NOT long_err MATCHES "--listen path must be 1\\.\\.")
  message(FATAL_ERROR "oversized --listen path diagnostic missing the "
          "limit: ${long_err}")
endif()

# An empty path is a parse error (it would silently fall back to
# stdin/stdout serving); duet_sim exits 2 on bad usage.
execute_process(
  COMMAND ${DUET_SIM} --serve --listen ""
  INPUT_FILE /dev/null
  OUTPUT_QUIET
  ERROR_VARIABLE empty_err
  RESULT_VARIABLE empty_rv)
if(NOT empty_rv EQUAL 2)
  message(FATAL_ERROR
          "--listen '' should exit 2, got '${empty_rv}' "
          "(stderr: ${empty_err})")
endif()
if(NOT empty_err MATCHES "non-empty socket PATH")
  message(FATAL_ERROR "empty --listen diagnostic unexpected: ${empty_err}")
endif()

message(STATUS "serve smoke OK: oversized and empty --listen paths "
        "rejected with exit 2")
