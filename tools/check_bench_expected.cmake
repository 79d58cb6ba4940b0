# Golden paper_figures output and its CLI contract, invoked in CMake script
# mode:
#
#   cmake -DPAPER_FIGURES=<built paper_figures>
#         -DEXPECTED_DIR=<repo>/bench/expected
#         -DOUT_DIR=<output dir> -DMODE=quick|full
#         -P check_bench_expected.cmake
#
# Runs each figure (at --quick when MODE is quick) and compares its stdout
# byte for byte with EXPECTED_DIR/<figure>.<MODE>.txt: at --jobs 1 in quick
# mode and at --jobs 4 in full mode. Quick mode also runs all figures at
# once at --jobs 4 and compares that stdout with the expectations
# concatenated in the order of `figures` below, which is the table's order;
# EXPECTED_DIR must hold exactly one expectation per figure. So a row without
# an expectation, an expectation without a row and a reordered table all
# fail, and in quick mode every figure is checked at both job counts. Any
# change to a printed cell fails until the expectation is re-recorded, with
# a reason, in the same change: the stdout left in
# OUT_DIR/<figure>.<MODE>.jobs<N>.txt is exactly what to commit.
#
# paper_figures must also exit 2 on an unknown flag, a negative --jobs, an
# unknown figure name and --figure without a name.

foreach(var PAPER_FIGURES EXPECTED_DIR OUT_DIR MODE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_expected.cmake: -D${var}=... is required")
  endif()
endforeach()
if(MODE STREQUAL "quick")
  set(mode_flags --quick)
  set(figure_jobs 1)
elseif(MODE STREQUAL "full")
  set(mode_flags)
  set(figure_jobs 4)
else()
  message(FATAL_ERROR "check_bench_expected.cmake: MODE must be quick or full")
endif()

set(figures fig5_02_cwnd_chain fig5_08_hops_sweep fig5_16_coexistence
            fig5_19_dynamics ablation_drai ablation_marking ecn_vs_drai
            relwork_shootout mobility_bench)

file(MAKE_DIRECTORY ${OUT_DIR})

set(want)
foreach(figure ${figures})
  list(APPEND want ${figure}.${MODE}.txt)
endforeach()
list(SORT want)
get_filename_component(expected_dir ${EXPECTED_DIR} ABSOLUTE)
file(GLOB have RELATIVE ${expected_dir} ${expected_dir}/*.${MODE}.txt)
list(SORT have)
if(NOT have STREQUAL want)
  message(SEND_ERROR "${EXPECTED_DIR} holds ${have}; the figures want ${want}")
endif()

# expect_output(<expected file> <actual file name> <args>...)
function(expect_output expected actual_name)
  string(JOIN " " run paper_figures ${mode_flags} ${ARGN})
  set(actual ${OUT_DIR}/${actual_name})
  execute_process(
    COMMAND ${PAPER_FIGURES} ${mode_flags} ${ARGN}
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
    message(SEND_ERROR "${run}: stdout differs from ${expected}; "
                       "see ${actual}")
  endif()
endfunction()

# expect_usage_error(<args>...)
function(expect_usage_error)
  string(JOIN " " run paper_figures ${ARGN})
  execute_process(
    COMMAND ${PAPER_FIGURES} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "${run}: exit '${rc}', want 2")
  endif()
endfunction()

set(all_expected ${OUT_DIR}/all_figures.${MODE}.expected.txt)
file(WRITE ${all_expected} "")
foreach(figure ${figures})
  set(expected ${EXPECTED_DIR}/${figure}.${MODE}.txt)
  expect_output(${expected} ${figure}.${MODE}.jobs${figure_jobs}.txt
                --figure ${figure} --jobs ${figure_jobs})
  file(READ ${expected} golden)
  file(APPEND ${all_expected} "${golden}")
endforeach()
if(MODE STREQUAL "quick")
  expect_output(${all_expected} all_figures.${MODE}.jobs4.txt --jobs 4)
endif()

expect_usage_error(--bogus-flag)
expect_usage_error(--jobs -1)
expect_usage_error(--jobs=-7)
expect_usage_error(--figure nosuch)
expect_usage_error(--figure)
