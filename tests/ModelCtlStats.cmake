# The telemetry-invariant checker (`model_ctl stats`) on a real export:
# paper_stamp writes an experiment JSON, which must pass (exit 0);
# a copy whose abort total was edited, and one whose guided holds were
# edited below its forced releases, must fail the invariants (exit 1);
# a file that is not JSON must be refused (exit 2). Invoked by the
# `model_ctl_stats` ctest:
#
#   cmake -DMODEL_CTL=<model_ctl> -DPAPER_STAMP=<paper_stamp>
#         -DWORK_DIR=<dir> -P ModelCtlStats.cmake

if(NOT MODEL_CTL OR NOT PAPER_STAMP OR NOT WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DMODEL_CTL=<bin> -DPAPER_STAMP=<bin> -DWORK_DIR=<dir> "
      "-P ModelCtlStats.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PAPER_STAMP} --workloads=kmeans --size=small --train-size=small
          --threads=2 --profile-runs=1 --runs=1 --json-dir=${WORK_DIR}
  RESULT_VARIABLE StampRc OUTPUT_QUIET)
set(EXPORT ${WORK_DIR}/kmeans_t2.json)
if(NOT StampRc EQUAL 0 OR NOT EXISTS ${EXPORT})
  message(FATAL_ERROR "paper_stamp wrote no export (${StampRc})")
endif()

# expect_stats(<file> <exit code>)
function(expect_stats File Want)
  execute_process(COMMAND ${MODEL_CTL} stats ${File}
    RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
  if(NOT Rc EQUAL ${Want})
    message(FATAL_ERROR "model_ctl stats ${File}: expected exit ${Want}, "
        "got '${Rc}'\n${Out}${Err}")
  endif()
  message(STATUS "model_ctl stats ${File}: exit ${Rc} as expected\n${Err}")
endfunction()

expect_stats(${EXPORT} 0)

# One more abort in the guided side's total than its cause and site
# breakdowns hold.
file(READ ${EXPORT} Doc)
string(JSON Aborts GET "${Doc}" guided telemetry aborts)
math(EXPR Aborts "${Aborts} + 1")
string(JSON Doc SET "${Doc}" guided telemetry aborts ${Aborts})
file(WRITE ${WORK_DIR}/tampered.json "${Doc}")
expect_stats(${WORK_DIR}/tampered.json 1)

# The guided side's holds edited below its forced releases: a release
# that ends no hold.
file(READ ${EXPORT} Doc)
string(JSON Forced GET "${Doc}" guided guide forced_releases)
if(Forced EQUAL 0)
  # Nothing to go below; one forced release with no hold is the same
  # violation.
  string(JSON Doc SET "${Doc}" guided guide forced_releases 1)
  set(Forced 1)
endif()
math(EXPR Holds "${Forced} - 1")
string(JSON Doc SET "${Doc}" guided guide holds ${Holds})
file(WRITE ${WORK_DIR}/tampered-holds.json "${Doc}")
expect_stats(${WORK_DIR}/tampered-holds.json 1)

file(WRITE ${WORK_DIR}/not-json.json "commits: 3, aborts: 1\n")
expect_stats(${WORK_DIR}/not-json.json 2)

file(REMOVE_RECURSE ${WORK_DIR})
message(STATUS "model_ctl stats checks passed")
