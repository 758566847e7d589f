# Index-tier equivalence smoke at the CLI surface, mirroring
# cli_threads_smoke.cmake: every --index=hash|direct|auto run must be
# byte-identical to the default run — fixpoint rows AND the
# stability-index comment line. The index tier changes how lookups are
# served; it may not change a single output byte.
#
# PROGRAM only ever joins on single-column keys, which --index=auto
# serves from the direct tier. TRI_PROGRAM (directed triangles over ℕ)
# closes its join on a two-column key, so it reaches the hash tier under
# every --index value; its default output must also equal TRI_EXPECTED.
#
# Invoked by CTest as:
#   cmake -DCLI=<datalogo_cli> -DPROGRAM=<.dl> -DEDGES=<.tsv>
#         -DTRI_PROGRAM=<.dl> -DTRI_EDGES=<.tsv> -DTRI_EXPECTED=<.out>
#         -DOUT_DIR=<dir> -P cli_index_smoke.cmake
foreach(var CLI PROGRAM EDGES TRI_PROGRAM TRI_EDGES TRI_EXPECTED OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_index_smoke: missing -D${var}=...")
  endif()
endforeach()

function(run_cli out_file)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    OUTPUT_FILE ${out_file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "datalogo_cli ${ARGN} failed (exit ${rc})")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what} differ: ${a} vs ${b}")
  endif()
endfunction()

set(base_args --semiring=trop --edb E=${EDGES} --seminaive)

# Reference: defaults (--index=auto).
set(ref_out "${OUT_DIR}/cli_index_ref.out")
run_cli(${ref_out} ${PROGRAM} ${base_args})

foreach(index hash direct auto)
  set(out "${OUT_DIR}/cli_index_${index}.out")
  run_cli(${out} ${PROGRAM} ${base_args} --index=${index})
  require_identical(${ref_out} ${out} "default and --index=${index} output")
endforeach()

# Tier choice must also commute with parallelism: spot-check the least
# hash-like tier at 4 threads against the reference.
set(t4_out "${OUT_DIR}/cli_index_direct_t4.out")
run_cli(${t4_out} ${PROGRAM} ${base_args} --index=direct --threads=4)
require_identical(${ref_out} ${t4_out}
                  "default and --index=direct --threads=4 output")

# Two-column probes: the triangle program's closing atom E(Z,X).
set(tri_args --semiring=nat --edb E=${TRI_EDGES})
set(tri_ref_out "${OUT_DIR}/cli_index_tri_ref.out")
run_cli(${tri_ref_out} ${TRI_PROGRAM} ${tri_args})
require_identical(${TRI_EXPECTED} ${tri_ref_out} "expected triangles and output")
foreach(index hash direct auto)
  foreach(threads 1 4)
    set(out "${OUT_DIR}/cli_index_tri_${index}_t${threads}.out")
    run_cli(${out} ${TRI_PROGRAM} ${tri_args} --index=${index}
            --threads=${threads})
    require_identical(${tri_ref_out} ${out}
                      "triangle default and --index=${index} --threads=${threads} output")
  endforeach()
endforeach()

message(STATUS "index smoke: every index tier byte-identical")
