# Runs bootstrap_demo under one execution leg and diffs its transcript
# against the pinned golden.
#
#   cmake -DDEMO=<bootstrap_demo> -DGOLDEN=<bootstrap_demo.out>
#         "-DLEG_ENV=CL_SIMD=scalar CL_THREADS=1 CL_EXEC=serial"
#         -P check_bootstrap_demo.cmake
#
# A leg whose CL_SIMD backend this CPU cannot run prints "SKIPPED:"
# (the ctest registration maps that to a skip) instead of passing on
# the scalar fallback.

foreach(var DEMO GOLDEN LEG_ENV)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_bootstrap_demo: -D${var}=... is required")
    endif()
endforeach()

separate_arguments(env_vars UNIX_COMMAND "${LEG_ENV}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env_vars} ${DEMO}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)

if(err MATCHES "unavailable on this host")
    message("SKIPPED: ${LEG_ENV}: ${err}")
    return()
endif()
# The demo writes nothing to stderr; a warning means the leg did not
# run as configured (a malformed knob falls back silently otherwise).
if(NOT rc EQUAL 0 OR NOT err STREQUAL "")
    message(FATAL_ERROR "bootstrap_demo (${LEG_ENV}) exited ${rc}:\n${err}")
endif()

file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
    message(FATAL_ERROR "bootstrap_demo (${LEG_ENV}) differs from ${GOLDEN}:\n"
                        "--- got ---\n${out}--- golden ---\n${golden}")
endif()
