# End-to-end smoke for the event-driven replay engine: run a --jobs 2
# sweep over queue depths 1 and 8 and assert that (a) the CSV gained
# the qd column, (b) both depths produced a row, and (c) qd=8 delivers
# at least 1.5x the qd=1 throughput (the run is fully deterministic,
# so this is a stable comparison, not a flaky perf assertion; the
# measured ratio on this config is ~2x). A read-heavy uniform workload
# keeps the flash reads spread across channels -- zipf-skewed mixes
# concentrate on hot channels and measure skew, not the engine.
# Invoked by CTest with -DSIM_BIN=<path to leaftl_sim>.

if(NOT SIM_BIN)
    message(FATAL_ERROR "SIM_BIN not set")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/CsvCell.cmake)

execute_process(
    COMMAND ${SIM_BIN}
            --ftl leaftl
            --workload synthetic:rand
            --gamma 0
            --qd 1,8
            --jobs 2
            --requests 30000
            --ws 8192
            --prefill 1.0
            --read-ratio 0.9
            --interarrival 2
    OUTPUT_VARIABLE sim_out
    RESULT_VARIABLE sim_rc)

if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR "leaftl_sim exited with ${sim_rc}:\n${sim_out}")
endif()

string(STRIP "${sim_out}" sim_out)
string(REPLACE "\n" ";" sim_lines "${sim_out}")
list(LENGTH sim_lines n_lines)
if(NOT n_lines EQUAL 3)
    message(FATAL_ERROR
        "expected header + 2 rows (qd 1 and 8), got ${n_lines}:\n${sim_out}")
endif()

list(GET sim_lines 0 header)
if(NOT header MATCHES "^ftl,workload,gamma,qd,")
    message(FATAL_ERROR "CSV header lacks the qd column: ${header}")
endif()

# throughput_mbps is printed with exactly four decimals; dropping the
# dot scales both values by 10^4 so they can be compared as integers
# (CMake's numeric if() is integer-only).
set(tp_1 "")
set(tp_8 "")
foreach(line IN LISTS sim_lines)
    if(line MATCHES "^ftl,")
        continue()
    endif()
    csv_cell(qd "${header}" "${line}" qd)
    csv_cell(tp "${header}" "${line}" throughput_mbps)
    if(NOT tp MATCHES "^[0-9]+\\.[0-9][0-9][0-9][0-9]$")
        message(FATAL_ERROR "malformed throughput '${tp}' in: ${line}")
    endif()
    string(REPLACE "." "" tp "${tp}")
    if(qd STREQUAL "1")
        set(tp_1 "${tp}")
    elseif(qd STREQUAL "8")
        set(tp_8 "${tp}")
    else()
        message(FATAL_ERROR "unexpected qd '${qd}' in: ${line}")
    endif()
endforeach()

if(tp_1 STREQUAL "" OR tp_8 STREQUAL "")
    message(FATAL_ERROR "missing a qd row:\n${sim_out}")
endif()

if(tp_8 LESS tp_1)
    message(FATAL_ERROR
        "throughput decreased with queue depth: qd=1 -> ${tp_1}, "
        "qd=8 -> ${tp_8} (x10^4 MB/s)")
endif()

math(EXPR tp_bar "${tp_1} + ${tp_1} / 2")
if(tp_8 LESS tp_bar)
    message(FATAL_ERROR
        "qd=8 throughput below the 1.5x acceptance bar: qd=1 -> ${tp_1}, "
        "qd=8 -> ${tp_8}, bar -> ${tp_bar} (x10^4 MB/s)")
endif()

message(STATUS
    "leaftl_sim qd smoke OK (throughput x10^4 MB/s: qd1=${tp_1}, qd8=${tp_8})")
