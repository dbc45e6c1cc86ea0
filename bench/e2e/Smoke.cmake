# bench_e2e_smoke: every gstm_bench workload at --smoke scale. Checks that
# each end-to-end metric BENCHMARK.json names is printed with its unit and
# no verification failed; that the traced run prints every per-layer
# metric and writes a trace-event file; and that a corrupted copy of a
# pinned model makes the command exit non-zero without a result.
#
#   cmake -DGSTM_BENCH=<bin> -DBENCHMARK_JSON=<file> -DMODELS_DIR=<dir>
#         -DWORK_DIR=<dir> -P Smoke.cmake

foreach(Var GSTM_BENCH BENCHMARK_JSON MODELS_DIR WORK_DIR)
  if(NOT ${Var})
    message(FATAL_ERROR "usage: cmake -DGSTM_BENCH=<bin> "
        "-DBENCHMARK_JSON=<file> -DMODELS_DIR=<dir> -DWORK_DIR=<dir> "
        "-P Smoke.cmake")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(READ ${BENCHMARK_JSON} Spec)

# Fails unless every metric of list \p Kind in BENCHMARK.json appears in
# \p Out as `metric <name> <value> <unit>`.
function(check_metrics Kind Out Context)
  string(JSON Count LENGTH "${Spec}" ${Kind})
  math(EXPR Last "${Count} - 1")
  foreach(I RANGE ${Last})
    string(JSON Name GET "${Spec}" ${Kind} ${I} name)
    string(JSON Unit GET "${Spec}" ${Kind} ${I} unit)
    string(FIND "${Out}" "\nmetric ${Name} " Pos)
    if(Pos EQUAL -1)
      message(FATAL_ERROR "${Context}: metric ${Name} not printed")
    endif()
    string(SUBSTRING "${Out}" ${Pos} -1 Tail)
    string(REGEX MATCH "^\nmetric [^\n]*" Line "${Tail}")
    string(REPLACE " " ";" Fields "${Line}")
    list(LENGTH Fields NumFields)
    list(GET Fields -1 PrintedUnit)
    if(NOT NumFields EQUAL 4 OR NOT PrintedUnit STREQUAL Unit)
      message(FATAL_ERROR "${Context}: '${Line}' is not in ${Unit}")
    endif()
  endforeach()
endfunction()

function(check_result Out Context)
  if(NOT Out MATCHES "\nresult attempted=[1-9][0-9]* failed=0\n")
    message(FATAL_ERROR "${Context}: no result line with failed=0")
  endif()
endfunction()

string(JSON NumWorkloads LENGTH "${Spec}" workloads)
math(EXPR LastWorkload "${NumWorkloads} - 1")
foreach(I RANGE ${LastWorkload})
  string(JSON Workload GET "${Spec}" workloads ${I} name)
  set(Common --workload=${Workload} --smoke --seconds=0
             --models=${MODELS_DIR})

  execute_process(COMMAND ${GSTM_BENCH} ${Common}
    OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Workload}: gstm_bench exited ${Rc}\n${Out}")
  endif()
  check_metrics(end_to_end "${Out}" ${Workload})
  check_result("${Out}" ${Workload})

  set(TraceFile ${WORK_DIR}/${Workload}.json)
  execute_process(COMMAND ${GSTM_BENCH} ${Common} --trace=${TraceFile}
    OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Workload} traced: exited ${Rc}\n${Out}")
  endif()
  check_metrics(per_layer "${Out}" "${Workload} traced")
  check_result("${Out}" "${Workload} traced")
  file(READ ${TraceFile} Trace)
  string(JSON NumEvents ERROR_VARIABLE TraceError LENGTH "${Trace}"
         traceEvents)
  if(TraceError OR NumEvents EQUAL 0)
    message(FATAL_ERROR "${Workload}: bad trace file: ${TraceError}")
  endif()
  string(JSON Phase GET "${Trace}" traceEvents 0 ph)
  string(JSON Parent GET "${Trace}" traceEvents 0 args parent)
  if(NOT Phase STREQUAL "X" OR NOT Parent MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${Workload}: trace events lack ph/args.parent")
  endif()
  message(STATUS "${Workload}: ok (${NumEvents} spans)")
endforeach()

# A pinned model cut in half must be refused: non-zero exit, no result.
file(COPY ${MODELS_DIR}/ DESTINATION ${WORK_DIR}/models)
file(READ ${WORK_DIR}/models/genome_t2.json Model)
string(LENGTH "${Model}" ModelLen)
math(EXPR HalfLen "${ModelLen} / 2")
string(SUBSTRING "${Model}" 0 ${HalfLen} Broken)
file(WRITE ${WORK_DIR}/models/genome_t2.json "${Broken}")
execute_process(
  COMMAND ${GSTM_BENCH} --workload=guided-genome --smoke --seconds=0
          --models=${WORK_DIR}/models
  OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Rc)
if(Rc EQUAL 0 OR Out MATCHES "\nresult ")
  message(FATAL_ERROR "a corrupted pinned model was accepted (exit ${Rc})")
endif()
message(STATUS "corrupted model refused (exit ${Rc}): ${Err}")

file(REMOVE_RECURSE ${WORK_DIR})
message(STATUS "bench_e2e smoke passed")
