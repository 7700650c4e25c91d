# End-to-end smoke of the campaign runner: run the tiny campaign
# twice into a fresh directory and assert that (1) the first pass
# announces and executes every unique run and writes one fingerprinted
# CSV each plus a BENCH_*.json, and (2) the second pass is a pure
# resume -- nothing announced, zero re-executed runs, CSV bytes
# untouched. Invoked by CTest with
# -DSIM_BIN=... -DCAMPAIGN_CONFIG=... -DWORK_DIR=...

if(NOT SIM_BIN OR NOT CAMPAIGN_CONFIG OR NOT WORK_DIR)
    message(FATAL_ERROR "SIM_BIN, CAMPAIGN_CONFIG, and WORK_DIR required")
endif()

file(REMOVE_RECURSE ${WORK_DIR})

execute_process(
    COMMAND ${SIM_BIN} --campaign ${CAMPAIGN_CONFIG}
            --campaign-dir ${WORK_DIR}
    OUTPUT_VARIABLE first_out
    RESULT_VARIABLE first_rc)
if(NOT first_rc EQUAL 0)
    message(FATAL_ERROR "campaign run 1 exited with ${first_rc}:\n${first_out}")
endif()

if(NOT first_out MATCHES ", 3 to execute")
    message(FATAL_ERROR "run 1 should announce 3 runs:\n${first_out}")
endif()

file(GLOB run_csvs ${WORK_DIR}/run-*.csv)
list(LENGTH run_csvs n_csvs)
# 2 ftls x 2 gammas, DFTL gamma-insensitive -> 3 unique fingerprints.
if(NOT n_csvs EQUAL 3)
    message(FATAL_ERROR "expected 3 fingerprinted CSVs, got ${n_csvs}")
endif()
if(NOT EXISTS ${WORK_DIR}/BENCH_tiny.json)
    message(FATAL_ERROR "BENCH_tiny.json missing after campaign run")
endif()
file(READ ${WORK_DIR}/BENCH_tiny.json first_json)
if(NOT first_json MATCHES "\"runs_executed\": 3")
    message(FATAL_ERROR "run 1 should execute 3 runs:\n${first_json}")
endif()

# Snapshot the CSV bytes; the resume pass must not touch them.
set(before "")
foreach(csv IN LISTS run_csvs)
    file(READ ${csv} content)
    string(APPEND before "${content}")
endforeach()

execute_process(
    COMMAND ${SIM_BIN} --campaign ${CAMPAIGN_CONFIG}
            --campaign-dir ${WORK_DIR}
    OUTPUT_VARIABLE second_out
    RESULT_VARIABLE second_rc)
if(NOT second_rc EQUAL 0)
    message(FATAL_ERROR "campaign run 2 exited with ${second_rc}:\n${second_out}")
endif()

if(NOT second_out MATCHES ", 0 to execute")
    message(FATAL_ERROR "rerun should announce 0 runs:\n${second_out}")
endif()

file(READ ${WORK_DIR}/BENCH_tiny.json second_json)
if(NOT second_json MATCHES "\"runs_executed\": 0")
    message(FATAL_ERROR "rerun should resume all runs:\n${second_json}")
endif()
if(NOT second_json MATCHES "\"runs_resumed\": 3")
    message(FATAL_ERROR "rerun should report 3 resumed runs:\n${second_json}")
endif()

set(after "")
foreach(csv IN LISTS run_csvs)
    file(READ ${csv} content)
    string(APPEND after "${content}")
endforeach()
if(NOT before STREQUAL after)
    message(FATAL_ERROR "resume rewrote fingerprinted CSVs")
endif()

message(STATUS "leaftl_sim campaign smoke OK (3 runs, pure resume)")
