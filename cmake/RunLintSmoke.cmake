# Lint the real tree with leaftl_lint and require a clean pass: the
# repo's determinism/concurrency/hygiene disciplines are tested
# invariants, not review guidelines. Asserts both the human (text)
# and the machine (JSON) entry points.
#
# Inputs: LINT_BIN (leaftl_lint executable), SOURCE_DIR (repo root).

execute_process(
    COMMAND ${LINT_BIN} --root ${SOURCE_DIR}
            src tools bench examples tests
    OUTPUT_VARIABLE text_out
    ERROR_VARIABLE text_err
    RESULT_VARIABLE text_rc)
if(NOT text_rc EQUAL 0)
    message(FATAL_ERROR
        "leaftl_lint found violations (exit ${text_rc}):\n"
        "${text_out}${text_err}")
endif()

execute_process(
    COMMAND ${LINT_BIN} --root ${SOURCE_DIR} --format=json
            src tools bench examples tests
    OUTPUT_VARIABLE json_out
    RESULT_VARIABLE json_rc)
if(NOT json_rc EQUAL 0)
    message(FATAL_ERROR "leaftl_lint --format=json exited ${json_rc}")
endif()
if(NOT json_out MATCHES "\"count\": 0")
    message(FATAL_ERROR "JSON report not clean:\n${json_out}")
endif()
if(NOT json_out MATCHES "\"tool\": \"leaftl_lint\"")
    message(FATAL_ERROR "JSON report missing schema header:\n${json_out}")
endif()

# The rule catalog must stay discoverable (README documents it).
execute_process(
    COMMAND ${LINT_BIN} --list-rules
    OUTPUT_VARIABLE rules_out
    RESULT_VARIABLE rules_rc)
if(NOT rules_rc EQUAL 0 OR NOT rules_out MATCHES "wall-clock"
   OR NOT rules_out MATCHES "hot-path-node-containers")
    message(FATAL_ERROR "--list-rules lost rules:\n${rules_out}")
endif()

message(STATUS "leaftl_lint: tree is clean")
