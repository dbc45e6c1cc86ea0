# Smallest-scale smoke of the two ablation benches: each runs kmeans on
# two threads with one profiling and one measured run on the small input,
# must exit 0 and must print its table header. Invoked by the
# `ablation_smoke` ctest:
#
#   cmake -DBENCH_DIR=<dir holding the ablation_* binaries>
#         -P AblationSmoke.cmake

if(NOT BENCH_DIR)
  message(FATAL_ERROR
      "usage: cmake -DBENCH_DIR=<dir> -P AblationSmoke.cmake")
endif()

set(Small --threads=2 --profile-runs=1 --runs=1 --size=small
          --train-size=small)

# run_ablation(<binary> <workload option> <header regex>)
function(run_ablation Bin Workload Header)
  execute_process(COMMAND ${BENCH_DIR}/${Bin} ${Workload} ${Small}
    RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err TIMEOUT 60)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Bin} failed (${Rc}):\n${Out}${Err}")
  endif()
  if(NOT Out MATCHES "${Header}")
    message(FATAL_ERROR "${Bin}: no '${Header}' header in:\n${Out}")
  endif()
  message(STATUS "${Bin}: ok")
endfunction()

run_ablation(ablation_tfactor --workload=kmeans
             "tfactor +ND-cut +tail-cut +slowdown")
run_ablation(ablation_contention --workload=kmeans
             "policy +aborts +distinct-TTS")
