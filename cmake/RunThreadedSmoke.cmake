# End-to-end smoke for intra-run parallelism: the same sweep run with
# --threads 1 and --threads 4 on the tiny device must emit the same
# CSV bit for bit, except for the host wall-clock column (wall_ns,
# the last column). Replay is deterministic by construction -- the
# worker pool only runs disjoint per-group learns and compactions
# between barriers, while everything else stays on one thread -- so any
# divergence here is a real concurrency bug, not noise.
# Invoked by CTest with -DSIM_BIN=<path to leaftl_sim>.

if(NOT SIM_BIN)
    message(FATAL_ERROR "SIM_BIN not set")
endif()

set(common_flags
    --ftl leaftl,dftl
    --workload synthetic:zipf
    --gamma 0,4
    --qd 1,8
    --device tiny
    --jobs 1
    --requests 20000
    --ws 6144
    --prefill 0.5)

foreach(threads 1 4)
    execute_process(
        COMMAND ${SIM_BIN} ${common_flags} --threads ${threads}
        OUTPUT_VARIABLE sim_out
        ERROR_VARIABLE sim_err
        RESULT_VARIABLE sim_rc)
    if(NOT sim_rc EQUAL 0)
        message(FATAL_ERROR
            "leaftl_sim --threads ${threads} exited with ${sim_rc}:\n"
            "${sim_out}\n${sim_err}")
    endif()
    # Strip the trailing wall_ns cell of every line (header included).
    string(REGEX REPLACE ",[^,\n]*(\n|$)" "\n" stripped "${sim_out}")
    set(csv_t${threads} "${stripped}")
endforeach()

if(NOT csv_t4 STREQUAL csv_t1)
    message(FATAL_ERROR
        "--threads 4 CSV diverges from --threads 1 (modulo wall_ns):\n"
        "=== threads 1 ===\n${csv_t1}\n=== threads 4 ===\n${csv_t4}")
endif()

string(STRIP "${csv_t1}" body)
string(REPLACE "\n" ";" lines "${body}")
list(LENGTH lines n_lines)
# header + (2 ftl x 2 gamma x 2 qd) rows, minus the gamma collapse on
# dftl (gamma is fingerprint-neutral there but the sweep still emits a
# row per grid point).
if(n_lines LESS 9)
    message(FATAL_ERROR
        "expected header + 8 rows, got ${n_lines}:\n${csv_t1}")
endif()

message(STATUS
    "leaftl_sim threaded smoke OK (${n_lines} identical lines at "
    "--threads 1 and --threads 4, wall_ns excluded)")
