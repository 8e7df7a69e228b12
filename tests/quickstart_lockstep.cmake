# Runs the quickstart example twice — on the frame backend, and on
# batch_frame under lockstep noise sampling — and fails unless both print
# the same result rows.  Lockstep batch_frame is bit-identical to frame,
# so a difference means the example did not pass GLD_NOISE_SAMPLING (or
# GLD_BACKEND) on to its config.
#
#   cmake -DQUICKSTART=<path to quickstart> -P quickstart_lockstep.cmake

if(NOT QUICKSTART)
  message(FATAL_ERROR "pass -DQUICKSTART=<path to the quickstart binary>")
endif()

# 64 shots: one full batch_frame word.
set(common GLD_SHOTS_SCALE=0.16 GLD_THREADS=1)

function(result_rows out)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E env ${common} ${ARGN} ${QUICKSTART}
      OUTPUT_VARIABLE text
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart (${ARGN}) exited with ${rc}:\n${text}")
  endif()
  # One row per policy: name, LER (%e), FP/shot, FN/shot, LRCs/shot.
  string(REGEX MATCHALL "[^\n]*[0-9]\\.[0-9][0-9]e[-+][0-9][0-9][^\n]*"
         rows "${text}")
  list(LENGTH rows n)
  if(NOT n EQUAL 3)
    message(FATAL_ERROR
            "quickstart (${ARGN}) printed ${n} result rows, not 3:\n${text}")
  endif()
  set(${out} "${rows}" PARENT_SCOPE)
endfunction()

result_rows(frame GLD_BACKEND=frame)
result_rows(batch GLD_BACKEND=batch_frame GLD_NOISE_SAMPLING=lockstep)
if(NOT frame STREQUAL batch)
  string(REPLACE ";" "\n" frame "${frame}")
  string(REPLACE ";" "\n" batch "${batch}")
  message(FATAL_ERROR "lockstep batch_frame differs from frame:\n"
                      "frame:\n${frame}\nbatch_frame (lockstep):\n${batch}")
endif()
message(STATUS "frame and lockstep batch_frame print the same rows")
