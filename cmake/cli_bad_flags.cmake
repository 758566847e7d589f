# Malformed flags at the CLI surface: every bad --threads /
# --max-steps value must make datalogo_cli exit with a nonzero status
# and a message naming the flag — never die on a signal (an uncaught
# std::stoi exception used to reach abort()) and never be accepted
# silently. The boundary values of each accepted range must still run.
# Malformed --edb/--bedb use and '#'-leading keys must exit 1.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -P cli_bad_flags.cmake
foreach(var CLI PROGRAM EDGES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_bad_flags: missing -D${var}=...")
  endif()
endforeach()

set(base_args ${PROGRAM} --semiring=trop --edb E=${EDGES} --seminaive)

# flag=value pairs, each of which must be rejected.
set(bad_flags
    --threads=abc
    --threads=
    --threads=4x
    --threads=+4
    --threads=-5
    --threads=1025
    --threads=100000
    --threads=99999999999
    --max-steps=99999999999
    --max-steps=-99999999999
    --max-steps=1e99
    --max-steps=0
    --max-steps=-1
    --max-steps=ten)

foreach(flag IN LISTS bad_flags)
  string(REGEX REPLACE "=.*" "" flag_name "${flag}")
  execute_process(
    COMMAND ${CLI} ${base_args} ${flag}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  # A signal death shows up as a non-numeric result ("Child aborted").
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "datalogo_cli ${flag} crashed: ${rc}")
  endif()
  if(rc EQUAL 0)
    message(FATAL_ERROR "datalogo_cli ${flag} was accepted (exit 0)")
  endif()
  string(FIND "${err}" "${flag_name}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "datalogo_cli ${flag} exited ${rc} without a ${flag_name} "
            "message; stderr was:\n${err}")
  endif()
endforeach()

# The edges of each accepted range still run (--threads=1024, the upper
# edge, is left out: it would start a thousand workers).
foreach(flag --threads=0 --threads=4 --max-steps=1 --max-steps=2147483647)
  execute_process(
    COMMAND ${CLI} ${base_args} ${flag}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  # --max-steps=1 may legitimately stop short of the fixpoint (exit 2);
  # only a usage rejection (exit 1) or a crash fails here.
  if(NOT rc MATCHES "^[02]$")
    message(FATAL_ERROR "datalogo_cli ${flag} rejected or crashed "
                        "(${rc}):\n${err}")
  endif()
endforeach()

# Usage and input errors that must exit 1, never abort: --edb/--bedb as
# the last argument (no PRED=FILE follows), flags that merely begin with
# --edb/--bedb, and a '#'-leading key token in an EDB file or an update
# batch ('#' opens a comment only as a line's first byte).
set(hash_tsv ${CMAKE_CURRENT_BINARY_DIR}/cli_bad_flags_hash_key.tsv)
set(hash_batch ${CMAKE_CURRENT_BINARY_DIR}/cli_bad_flags_hash_key.batch)
file(WRITE ${hash_tsv} "a\t#b\t1\n")
file(WRITE ${hash_batch} "+ E a #b 1\n")
function(expect_exit_1 label)
  execute_process(
    COMMAND ${CLI} ${PROGRAM} --semiring=trop ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "datalogo_cli ${label}: expected exit 1, got "
                        "${rc}; stderr was:\n${err}")
  endif()
endfunction()
expect_exit_1("trailing --edb" --edb)
expect_exit_1("trailing --bedb" --bedb)
expect_exit_1("--edbX" --edbX E=${EDGES})
expect_exit_1("--bedbX" --bedbX E=${EDGES})
expect_exit_1("'#'-leading EDB key" --edb E=${hash_tsv})
expect_exit_1("'#'-leading update key" --edb E=${EDGES}
              --update=${hash_batch})
file(REMOVE ${hash_tsv} ${hash_batch})

message(STATUS "bad flags: every malformed value rejected with a message")
