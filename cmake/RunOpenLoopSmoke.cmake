# End-to-end smoke for the open-loop replay pipeline: sweep --mode
# over closed + the two rate-driven shapers on a tiny device and
# assert that (a) the CSV gained the mode/rate/percentile columns,
# (b) every mode produced a row echoing its token, and (c) each row's
# percentiles are ordered (p50 <= p99 <= p99.9) -- the basic sanity
# any latency distribution must satisfy.
# Invoked by CTest with -DSIM_BIN=<path to leaftl_sim>.

if(NOT SIM_BIN)
    message(FATAL_ERROR "SIM_BIN not set")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/CsvCell.cmake)

execute_process(
    COMMAND ${SIM_BIN}
            --ftl leaftl
            --workload synthetic:rand
            --mode closed,fixed,poisson
            --rate 50000
            --qd 16
            --requests 20000
            --ws 8192
            --prefill 1.0
            --read-ratio 0.9
    OUTPUT_VARIABLE sim_out
    RESULT_VARIABLE sim_rc)

if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR "leaftl_sim exited with ${sim_rc}:\n${sim_out}")
endif()

string(STRIP "${sim_out}" sim_out)
string(REPLACE "\n" ";" sim_lines "${sim_out}")
list(LENGTH sim_lines n_lines)
if(NOT n_lines EQUAL 4)
    message(FATAL_ERROR
        "expected header + 3 rows (closed/fixed/poisson), got "
        "${n_lines}:\n${sim_out}")
endif()

list(GET sim_lines 0 header)
if(NOT header MATCHES ",mode,rate_iops,offered_iops,achieved_iops,p50_lat_e2e_us,p95_lat_e2e_us,p99_lat_e2e_us,p999_lat_e2e_us,")
    message(FATAL_ERROR "CSV header lacks the open-loop columns: ${header}")
endif()

set(want_modes "closed;fixed;poisson")
set(row_idx 1)
foreach(want_mode IN LISTS want_modes)
    list(GET sim_lines ${row_idx} line)
    math(EXPR row_idx "${row_idx} + 1")
    csv_cell(mode "${header}" "${line}" mode)
    csv_cell(p50 "${header}" "${line}" p50_lat_e2e_us)
    csv_cell(p99 "${header}" "${line}" p99_lat_e2e_us)
    csv_cell(p999 "${header}" "${line}" p999_lat_e2e_us)
    if(NOT mode STREQUAL want_mode)
        message(FATAL_ERROR
            "expected mode '${want_mode}', got '${mode}' in: ${line}")
    endif()
    foreach(v IN ITEMS ${p50} ${p99} ${p999})
        if(NOT v MATCHES "^[0-9]+\\.[0-9][0-9][0-9][0-9]$")
            message(FATAL_ERROR "malformed percentile '${v}' in: ${line}")
        endif()
    endforeach()
    # Percentiles print with exactly four decimals; dropping the dot
    # scales them by 10^4 so CMake's integer if() can compare them.
    string(REPLACE "." "" p50_i "${p50}")
    string(REPLACE "." "" p99_i "${p99}")
    string(REPLACE "." "" p999_i "${p999}")
    if(p99_i LESS p50_i)
        message(FATAL_ERROR
            "p50 > p99 in ${want_mode} row: ${p50} vs ${p99}")
    endif()
    if(p999_i LESS p99_i)
        message(FATAL_ERROR
            "p99 > p99.9 in ${want_mode} row: ${p99} vs ${p999}")
    endif()
endforeach()

message(STATUS "leaftl_sim open-loop smoke OK (modes closed/fixed/poisson)")
