# A bench given a bad scale flag must exit with status 2 and name the
# bad value the way leaftl_sim does; a misspelled flag must not run
# the default experiment instead. Each run is time-boxed: a value
# that slips through (say a negative request count wrapped to 2^64)
# would otherwise replay forever; a DRAM budget of 2^44 MiB wrapped to
# 0 bytes and ran the derived default.
# Invoked by CTest with -DBENCH_BIN=<path to a parseScale bench>.

if(NOT BENCH_BIN)
    message(FATAL_ERROR "BENCH_BIN not set")
endif()

foreach(case "--gamma=abc|bad gamma 'abc'" "--requests=-5|bad requests '-5'"
             "--dram-mb=17592186044416|bad dram-mb"
             "--gama=4|unknown flag '--gama=4'")
    string(REPLACE "|" ";" case "${case}")
    list(GET case 0 flag)
    list(GET case 1 want)
    execute_process(
        COMMAND ${BENCH_BIN} --fast ${flag}
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
