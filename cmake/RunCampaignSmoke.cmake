# End-to-end smoke of the campaign runner: run the tiny config as a
# campaign twice into a fresh directory and assert that (1) the first
# pass announces and executes every unique run and writes one
# fingerprinted CSV each, and (2) the second pass is a pure resume --
# zero runs to execute, CSV bytes untouched. Invoked by CTest with
# -DSIM_BIN=... -DCAMPAIGN_CONFIG=... -DWORK_DIR=...

if(NOT SIM_BIN OR NOT CAMPAIGN_CONFIG OR NOT WORK_DIR)
    message(FATAL_ERROR "SIM_BIN, CAMPAIGN_CONFIG, and WORK_DIR required")
endif()

file(REMOVE_RECURSE ${WORK_DIR})

execute_process(
    COMMAND ${SIM_BIN} --config ${CAMPAIGN_CONFIG}
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
# The run CSVs are the campaign's whole output.
file(GLOB all_files ${WORK_DIR}/*)
if(NOT all_files STREQUAL run_csvs)
    message(FATAL_ERROR "campaign wrote more than its run CSVs: ${all_files}")
endif()

# Snapshot the CSV bytes; the resume pass must not touch them.
set(before "")
foreach(csv IN LISTS run_csvs)
    file(READ ${csv} content)
    string(APPEND before "${content}")
endforeach()

execute_process(
    COMMAND ${SIM_BIN} --config ${CAMPAIGN_CONFIG}
            --campaign-dir ${WORK_DIR}
    OUTPUT_VARIABLE second_out
    RESULT_VARIABLE second_rc)
if(NOT second_rc EQUAL 0)
    message(FATAL_ERROR "campaign run 2 exited with ${second_rc}:\n${second_out}")
endif()

if(NOT second_out MATCHES ", 0 to execute")
    message(FATAL_ERROR "rerun should announce 0 runs:\n${second_out}")
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
