# ctest helper: run the command given after `--` and require that it exits 2
# with the program's usage text on stderr (the contract of vhadoop_cli,
# scale_cluster and trace_query for bad arguments).
#   cmake -P expect_usage_error.cmake -- <command> [args...]
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
list(GET cmd 0 program)
get_filename_component(program_name "${program}" NAME)
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
# The usage line names the program, bare or as invoked (a full path).
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: [^ ]*${program_name} ")
  message(FATAL_ERROR "expected exit 2 with the usage text, got exit ${rc}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
