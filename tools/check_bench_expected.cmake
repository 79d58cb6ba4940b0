# Golden figure-driver outputs and the drivers' CLI contract, invoked in
# CMake script mode:
#
#   cmake -DBENCH_DIR=<built drivers> -DEXPECTED_DIR=<repo>/bench/expected
#         -DOUT_DIR=<output dir> -DMODE=quick|full
#         -P check_bench_expected.cmake
#
# Runs each of the nine figure drivers (at --quick when MODE is quick) and
# compares its stdout byte for byte with EXPECTED_DIR/<driver>.<MODE>.txt.
# The eight drivers that take --jobs run at --jobs 1 and --jobs 4 in quick
# mode, both against the same expectation, and at --jobs 4 in full mode;
# mobility_bench builds its networks by hand and takes no --jobs. Any change
# to a printed cell fails until the expectation is re-recorded, with a
# reason, in the same change: the stdout left in
# OUT_DIR/<driver>.<MODE>.jobs4.txt (mobility_bench: <driver>.<MODE>.txt) is
# exactly what to commit.
#
# Every driver must also exit 2 on --bogus-flag; the eight on --jobs -1, and
# mobility_bench on --jobs 4.

foreach(var BENCH_DIR EXPECTED_DIR OUT_DIR MODE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_expected.cmake: -D${var}=... is required")
  endif()
endforeach()
if(MODE STREQUAL "quick")
  set(mode_flags --quick)
  set(job_counts 1 4)
elseif(MODE STREQUAL "full")
  set(mode_flags)
  set(job_counts 4)
else()
  message(FATAL_ERROR "check_bench_expected.cmake: MODE must be quick or full")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

# expect_output(<driver> <actual file name> <extra args>...)
function(expect_output driver actual_name)
  string(JOIN " " run "${driver}" ${ARGN})
  set(actual ${OUT_DIR}/${actual_name})
  set(expected ${EXPECTED_DIR}/${driver}.${MODE}.txt)
  execute_process(
    COMMAND ${BENCH_DIR}/${driver} ${mode_flags} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${actual}
    ERROR_QUIET)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "${run}: exit '${rc}', want 0")
    return()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${actual}
    RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${run} (${MODE}): stdout differs from ${expected}; "
                       "see ${actual}")
  endif()
endfunction()

# expect_usage_error(<driver> <args>...)
function(expect_usage_error driver)
  string(JOIN " " run "${driver}" ${ARGN})
  execute_process(
    COMMAND ${BENCH_DIR}/${driver} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "${run}: exit '${rc}', want 2")
  endif()
endfunction()

foreach(driver fig5_02_cwnd_chain fig5_08_hops_sweep fig5_16_coexistence
               fig5_19_dynamics ablation_drai ablation_marking ecn_vs_drai
               relwork_shootout)
  foreach(jobs ${job_counts})
    expect_output(${driver} ${driver}.${MODE}.jobs${jobs}.txt --jobs ${jobs})
  endforeach()
  expect_usage_error(${driver} --bogus-flag)
  expect_usage_error(${driver} --jobs -1)
endforeach()
expect_output(mobility_bench mobility_bench.${MODE}.txt)
expect_usage_error(mobility_bench --bogus-flag)
expect_usage_error(mobility_bench --quick --jobs 4)
