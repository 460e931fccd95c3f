# Run a CLI that must refuse its options and check how it refuses:
#
#   cmake -DEXIT=<status> -DPATTERN=<regex> -P expect_cli_error.cmake \
#         -- <cli> [args...]
#
# The CLI passes only if it exits with status EXIT and prints exactly one
# line (stdout and stderr together) that matches PATTERN. A ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status, so a CLI that
# printed the right line and then exited 0 would pass.

if(NOT DEFINED EXIT OR NOT DEFINED PATTERN)
  message(FATAL_ERROR "usage: cmake -DEXIT=N -DPATTERN=RE -P "
                      "expect_cli_error.cmake -- CLI [ARGS...]")
endif()

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
if(NOT cmd)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)

if(NOT status STREQUAL EXIT)
  message(FATAL_ERROR "exit status '${status}', want ${EXIT}; output:\n"
                      "${output}")
endif()
string(REGEX REPLACE "\n$" "" line "${output}")
if(line STREQUAL "" OR line MATCHES "\n")
  message(FATAL_ERROR "want exactly one line of output, got:\n${output}")
endif()
if(NOT line MATCHES "${PATTERN}")
  message(FATAL_ERROR "output does not match '${PATTERN}':\n${output}")
endif()
