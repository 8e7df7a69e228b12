# Runs PROGRAM with one malformed environment knob, ENV (VAR=value), and
# fails unless it exits with status 1 and names VAR on stderr: a bad
# GLD_* value must end in a message, not in std::terminate's abort.
#
#   cmake -DPROGRAM=<binary> -DENV=GLD_MAX_D=abc -P bad_env_exits.cmake

if(NOT PROGRAM OR NOT ENV)
  message(FATAL_ERROR "pass -DPROGRAM=<binary> -DENV=<VAR=value>")
endif()
string(REGEX REPLACE "=.*" "" var "${ENV}")
string(REGEX REPLACE "^[^=]*=" "" value "${ENV}")

# Set in this process and run the program directly: `cmake -E env` would
# report a child's abort as exit status 1.
set(ENV{${var}} "${value}")
execute_process(
    COMMAND ${PROGRAM}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${PROGRAM} (${ENV}) exited with \"${rc}\", not 1:\n"
                      "${err}")
endif()
string(FIND "${err}" "${var}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} (${ENV}) exited 1 but did not name "
                      "${var} on stderr:\n${err}")
endif()
message(STATUS "${PROGRAM} (${ENV}) exited 1: ${err}")
