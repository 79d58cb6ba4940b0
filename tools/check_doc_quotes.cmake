# Holds a document's measured-data blocks to what the figures print, invoked
# in CMake script mode:
#
#   cmake -DDOC=<repo>/EXPERIMENTS.md -DROOT=<repo> -P check_doc_quotes.cmake
#
# Every fenced block without a language must come right after a tag line
#
#   <!-- quote: bench/expected/<figure>.full.txt -->
#
# and be a verbatim substring of that file (path relative to ROOT). Blocks
# with a language (```cpp, ```sh) are code samples and are not checked.

cmake_minimum_required(VERSION 3.16)

foreach(var DOC ROOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_doc_quotes.cmake: -D${var}=... is required")
  endif()
endforeach()

set(fence "\n```")
file(READ ${DOC} rest)
while(TRUE)
  string(FIND "${rest}" "${fence}" open)
  if(open EQUAL -1)
    break()
  endif()
  string(SUBSTRING "${rest}" 0 ${open} before)
  math(EXPR open "${open} + 4")
  string(SUBSTRING "${rest}" ${open} -1 rest)
  string(FIND "${rest}" "\n" eol)
  string(SUBSTRING "${rest}" 0 ${eol} info)
  string(SUBSTRING "${rest}" ${eol} -1 rest)
  # rest is now "\n<body lines, each ending in \n>```..."; blank lines inside
  # the body need no special case.
  string(FIND "${rest}" "${fence}" close)
  if(close EQUAL -1)
    message(FATAL_ERROR "${DOC}: a fenced block is not closed")
  endif()
  string(SUBSTRING "${rest}" 1 ${close} body)
  math(EXPR close "${close} + 4")
  string(SUBSTRING "${rest}" ${close} -1 rest)

  if(info STREQUAL "")
    string(REGEX MATCH "^[^\n]*" first "${body}")
    if(NOT before MATCHES "\n<!-- quote: ([^ \n]+) -->$")
      message(SEND_ERROR "${DOC}: the block starting '${first}' has no "
                         "<!-- quote: FILE --> line right before it")
    elseif(NOT EXISTS ${ROOT}/${CMAKE_MATCH_1})
      message(SEND_ERROR "${DOC}: ${CMAKE_MATCH_1} does not exist")
    else()
      file(READ ${ROOT}/${CMAKE_MATCH_1} printed)
      string(FIND "${printed}" "${body}" at)
      if(at EQUAL -1)
        message(SEND_ERROR "${DOC}: the block starting '${first}' is not a "
                           "verbatim excerpt of ${CMAKE_MATCH_1}")
      endif()
    endif()
  endif()
endwhile()
