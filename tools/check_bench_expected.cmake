# Golden figure-driver outputs, invoked in CMake script mode:
#
#   cmake -DBENCH_DIR=<built drivers> -DEXPECTED_DIR=<repo>/bench/expected
#         -DOUT_DIR=<output dir> -DMODE=quick|full
#         -P check_bench_expected.cmake
#
# Runs each of the nine figure drivers (at --quick when MODE is quick) and
# compares its stdout byte for byte with EXPECTED_DIR/<driver>.<MODE>.txt.
# Every driver but mobility_bench runs at --jobs 4; mobility_bench builds its
# networks by hand and takes no --jobs. Any change to a printed cell fails
# until the expectation is re-recorded, with a reason, in the same change:
# the stdout left in OUT_DIR/<driver>.<MODE>.txt is exactly what to commit.

foreach(var BENCH_DIR EXPECTED_DIR OUT_DIR MODE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_expected.cmake: -D${var}=... is required")
  endif()
endforeach()
if(MODE STREQUAL "quick")
  set(mode_flags --quick)
elseif(MODE STREQUAL "full")
  set(mode_flags)
else()
  message(FATAL_ERROR "check_bench_expected.cmake: MODE must be quick or full")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

function(expect_output driver)
  set(actual ${OUT_DIR}/${driver}.${MODE}.txt)
  set(expected ${EXPECTED_DIR}/${driver}.${MODE}.txt)
  execute_process(
    COMMAND ${BENCH_DIR}/${driver} ${mode_flags} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${actual}
    ERROR_QUIET)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "${driver}: exit '${rc}', want 0")
    return()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${actual}
    RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${driver} (${MODE}): stdout differs from ${expected}; "
                       "see ${actual}")
  endif()
endfunction()

foreach(driver fig5_02_cwnd_chain fig5_08_hops_sweep fig5_16_coexistence
               fig5_19_dynamics ablation_drai ablation_marking ecn_vs_drai
               relwork_shootout)
  expect_output(${driver} --jobs 4)
endforeach()
expect_output(mobility_bench)
