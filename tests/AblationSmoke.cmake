# Smallest-scale smoke of the one ablation bench, ablation_tfactor: it
# runs kmeans on two threads with one profiling and one measured run on
# the small input, must exit 0 and must print its table header. Invoked
# by the `ablation_smoke` ctest:
#
#   cmake -DBENCH_DIR=<dir holding the ablation_tfactor binary>
#         -P AblationSmoke.cmake

if(NOT BENCH_DIR)
  message(FATAL_ERROR
      "usage: cmake -DBENCH_DIR=<dir> -P AblationSmoke.cmake")
endif()

set(Bin ablation_tfactor)
set(Header "tfactor +ND-cut +tail-cut +slowdown")
execute_process(COMMAND ${BENCH_DIR}/${Bin} --workload=kmeans --threads=2
                        --profile-runs=1 --runs=1 --size=small
                        --train-size=small
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err TIMEOUT 60)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${Bin} failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "${Header}")
  message(FATAL_ERROR "${Bin}: no '${Header}' header in:\n${Out}")
endif()
message(STATUS "${Bin}: ok")
