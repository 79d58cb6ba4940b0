# muzha_cli exit-code contract, invoked in CMake script mode by ctest:
#
#   cmake -DCLI=<path to muzha_cli> -P check_cli_exit_codes.cmake
#
# A malformed number or an out-of-range value must exit 2 (message plus
# usage) instead of running with a meaningless config or aborting on an
# engine assert, and a config that breaks several rules of validate() names
# each; a good short run must exit 0, and one whose --csv files cannot be
# written must exit 1.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "check_cli_exit_codes.cmake: -DCLI=... is required")
endif()

function(expect_exit want)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT rc STREQUAL want)
    string(JOIN " " args ${ARGN})
    message(SEND_ERROR "muzha_cli ${args}: exit '${rc}', want ${want}")
  endif()
endfunction()

expect_exit(2 --loss 2)
expect_exit(2 --loss -0.5)
expect_exit(2 --duration -1)
expect_exit(2 --hops 0)
expect_exit(2 --hops abc)
expect_exit(2 --window 0)
expect_exit(2 --topology cross --hops 1)
expect_exit(0 --hops 2 --duration 0.5)
expect_exit(1 --hops 2 --duration 0.5 --csv /nonexistent-dir/x)

# A config that breaks several rules names each of them, not only the first.
execute_process(
  COMMAND ${CLI} --loss 2 --window 0
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL 2)
  message(SEND_ERROR "muzha_cli --loss 2 --window 0: exit '${rc}', want 2")
endif()
foreach(rule "uniform_error_rate must be in \\[0, 1\\]"
             "window must be >= 1")
  if(NOT err MATCHES "${rule}")
    message(SEND_ERROR
      "muzha_cli --loss 2 --window 0: stderr does not name '${rule}':\n${err}")
  endif()
endforeach()
