# trace_replay must refuse an argument it cannot honour -- an unknown
# flag, an unknown FTL, a malformed gamma -- with status 2 and a message
# naming it, instead of ignoring it, silently running LeaFTL, or dying
# on an uncaught exception. Each run is time-boxed: an argument that
# slips through would replay the default model instead.
# Invoked by CTest with -DEXAMPLE_BIN=<path to trace_replay>.

if(NOT EXAMPLE_BIN)
    message(FATAL_ERROR "EXAMPLE_BIN not set")
endif()

foreach(case "--gama=4|unknown flag '--gama=4'"
             "--ftl=xftl|unknown ftl 'xftl'"
             "--gamma=abc|bad gamma 'abc'")
    string(REPLACE "|" ";" case "${case}")
    list(GET case 0 flag)
    list(GET case 1 want)
    execute_process(
        COMMAND ${EXAMPLE_BIN} ${flag}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 5)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${flag}: expected exit 2, got '${rc}':\n${err}")
    endif()
    string(FIND "${err}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${flag}: stderr lacks \"${want}\":\n${err}")
    endif()
endforeach()
