# Negative-compilation test driver, invoked in CMake script mode by ctest:
#
#   cmake -DCXX=<compiler> -DSRC=<fixture.cc> -DINCLUDE_DIR=<repo>/src \
#         -P check_compile_fail.cmake
#
# Runs a syntax-only compile of the fixture and FAILS (so the surrounding
# ctest fails) iff the fixture COMPILES. Each fixture in tests/compile_fail/
# holds exactly one expression the API must reject: a unit misuse against
# the quantity types in sim/units.h, or an event callback over the inline
# budget of sim/inline_callback.h. A fixture that starts compiling means a
# hole was opened in that API. The harness itself is validated by running
# it over the compiling control fixture under WILL_FAIL (see
# tests/compile_fail/CMakeLists.txt).

foreach(var CXX SRC INCLUDE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_compile_fail.cmake: -D${var}=... is required")
  endif()
endforeach()

# A missing fixture would "fail to compile" for the wrong reason and pass
# the test silently — reject it up front.
if(NOT EXISTS ${SRC})
  message(FATAL_ERROR "fixture ${SRC} does not exist")
endif()

execute_process(
  COMMAND ${CXX} -std=c++20 -fsyntax-only -I${INCLUDE_DIR} ${SRC}
  RESULT_VARIABLE compile_result
  OUTPUT_VARIABLE compile_output
  ERROR_VARIABLE compile_error)

if(compile_result EQUAL 0)
  message(FATAL_ERROR
    "${SRC} compiled cleanly, but it contains an expression that the "
    "API is supposed to reject at compile time.")
endif()

message(STATUS "${SRC} failed to compile, as intended")
