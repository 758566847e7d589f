# Malformed flags at the CLI surface: every bad --threads /
# --max-steps value must make datalogo_cli exit with a nonzero status
# and a message naming the flag — never die on a signal (an uncaught
# std::stoi exception used to reach abort()) and never be accepted
# silently. The boundary values of each accepted range must still run.
# Malformed --edb/--bedb use, '#'-leading keys, the removed flags
# (--scheduler, --scan) and a negated POPS atom (which only the grounded
# engine evaluates) must exit 1 with a message; an order comparison
# over symbol keys is false, not an abort, and must run (exit 0).
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

# Runs datalogo_cli on `program` over EDGES and requires exit code
# `want_rc` with `want_err` somewhere in stderr (empty: stderr unchecked).
function(expect_run label want_rc want_err program)
  execute_process(
    COMMAND ${CLI} ${program} --semiring=trop --edb E=${EDGES} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "${want_rc}")
    message(FATAL_ERROR "datalogo_cli ${label}: expected exit ${want_rc}, "
                        "got ${rc}; stderr was:\n${err}")
  endif()
  if(NOT want_err STREQUAL "")
    string(FIND "${err}" "${want_err}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "datalogo_cli ${label}: stderr lacks "
                          "'${want_err}'; it was:\n${err}")
    endif()
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

expect_run("--scheduler=ordered" 1 "unknown flag" ${PROGRAM}
           --scheduler=ordered)
expect_run("--scan=simd" 1 "unknown flag" ${PROGRAM} --scan=simd)

set(neg_program ${CMAKE_CURRENT_BINARY_DIR}/cli_bad_flags_negated.dl)
file(WRITE ${neg_program} "edb E/2.\nidb T/2.\nT(X,Y) :- !E(X,Y).\n")
expect_run("negated POPS atom" 1 "grounded engine" ${neg_program})

# EDGES has symbol keys (v0, v1, ...), so X < Y is false on every row
# and T comes out empty.
set(cmp_program ${CMAKE_CURRENT_BINARY_DIR}/cli_bad_flags_symbol_cmp.dl)
file(WRITE ${cmp_program}
     "edb E/2.\nidb T/2.\nT(X,Y) :- { E(X,Y) | X < Y }.\n")
expect_run("symbol order comparison" 0 "" ${cmp_program} --seminaive)
string(FIND "${last_out}" "v0" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "symbol order comparison derived rows:\n${last_out}")
endif()
file(REMOVE ${neg_program} ${cmp_program})

message(STATUS "bad flags: every malformed value rejected with a message")
