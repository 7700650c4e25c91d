# Shared helper for the end-to-end smokes: read one cell of a
# leaftl_sim CSV row by its header name, so no smoke hard-codes a
# column position (the layout is defined once, by cli::csvColumns).
#
#   csv_cell(<out_var> "<header line>" "<row line>" <column name>)
#
# Fails the smoke when the header has no such column or the row is
# too short to hold it.

function(csv_cell out_var header row name)
    string(REPLACE "," ";" names "${header}")
    list(FIND names "${name}" idx)
    if(idx EQUAL -1)
        message(FATAL_ERROR "CSV header has no '${name}' column: ${header}")
    endif()
    string(REPLACE "," ";" cells "${row}")
    list(LENGTH cells n_cells)
    if(NOT idx LESS n_cells)
        message(FATAL_ERROR "CSV row has no '${name}' cell: ${row}")
    endif()
    list(GET cells ${idx} cell)
    set(${out_var} "${cell}" PARENT_SCOPE)
endfunction()
