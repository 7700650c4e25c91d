# End-to-end smoke for the durability pipeline: a tiny sweep with
# three mid-run crash points, once with a 4 KiB learn journal and once
# with none (--journal-threshold 0), must per leg (a) survive, (b) be
# bit-identical across two invocations (modulo wall_ns), and (c)
# actually exercise the pipeline -- the recovery CSV columns must be
# nonzero (journal records only with a journal; without one they must
# be zero).
# Invoked by CTest with -DSIM_BIN=<path to leaftl_sim>.

if(NOT SIM_BIN)
    message(FATAL_ERROR "SIM_BIN not set")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/CsvCell.cmake)

set(common_flags
    --ftl leaftl
    --workload synthetic:zipf
    --gamma 4
    --qd 8
    --device tiny
    --jobs 1
    --requests 20000
    --ws 6144
    --prefill 0.5
    --crash-at 500,2000,5000)

foreach(journal IN ITEMS 4096 0)
    foreach(run IN ITEMS run rerun)
        execute_process(
            COMMAND ${SIM_BIN} ${common_flags}
                    --journal-threshold ${journal}
            OUTPUT_VARIABLE sim_out
            ERROR_VARIABLE sim_err
            RESULT_VARIABLE sim_rc)
        if(NOT sim_rc EQUAL 0)
            message(FATAL_ERROR
                "leaftl_sim recovery smoke (journal ${journal}, ${run}) "
                "exited with ${sim_rc}:\n${sim_out}\n${sim_err}")
        endif()
        # Strip the trailing wall_ns cell of every line (header included).
        string(REGEX REPLACE ",[^,\n]*(\n|$)" "\n" stripped "${sim_out}")
        set(csv_${run} "${stripped}")
    endforeach()

    if(NOT csv_rerun STREQUAL csv_run)
        message(FATAL_ERROR
            "journal ${journal}: crash-at sweep is not deterministic "
            "across reruns:\n"
            "=== first ===\n${csv_run}\n=== second ===\n${csv_rerun}")
    endif()

    # One leaftl row: header + data. The recovery group sits before the
    # device hot-path counters and the (stripped) wall_ns column:
    # ...,recov_scanned_pages,recov_journal_records,recov_applied_deltas,
    # recovery_ms,cache_hits,cache_misses,gc_pick_calls,gc_pick_scanned,
    # trans_reads,trans_writes.
    string(STRIP "${csv_run}" body)
    string(REPLACE "\n" ";" lines "${body}")
    list(LENGTH lines n_lines)
    if(NOT n_lines EQUAL 2)
        message(FATAL_ERROR
            "expected header + 1 row, got ${n_lines}:\n${csv_run}")
    endif()
    list(GET lines 0 header)
    list(GET lines 1 row)
    if(NOT header MATCHES "recov_scanned_pages,recov_journal_records,recov_applied_deltas,recovery_ms,cache_hits,cache_misses,gc_pick_calls,gc_pick_scanned,trans_reads,trans_writes$")
        message(FATAL_ERROR
            "recovery columns missing from the CSV header:\n${header}")
    endif()
    csv_cell(recov_pages "${header}" "${row}" recov_scanned_pages)
    csv_cell(recov_records "${header}" "${row}" recov_journal_records)
    csv_cell(recov_ms "${header}" "${row}" recovery_ms)
    if(journal EQUAL 0)
        if(NOT recov_records EQUAL 0)
            message(FATAL_ERROR
                "journal 0 replayed ${recov_records} journal records:\n"
                "${row}")
        endif()
        if(recov_pages EQUAL 0)
            message(FATAL_ERROR
                "journal 0: three crash points scanned zero pages -- "
                "recovery did not rescan:\n${row}")
        endif()
    elseif(recov_records EQUAL 0)
        message(FATAL_ERROR
            "three crash points replayed zero journal records -- the "
            "journal pipeline did not engage:\n${row}")
    endif()
    if(recov_ms MATCHES "^0(\\.0+)?$")
        message(FATAL_ERROR
            "journal ${journal}: recovery_ms is zero across three "
            "crashes:\n${row}")
    endif()

    message(STATUS
        "leaftl_sim recovery smoke OK (journal ${journal}: 3 crashes, "
        "${recov_records} journal records replayed, ${recov_pages} pages "
        "scanned, ${recov_ms} ms, deterministic across rerun)")
endforeach()
