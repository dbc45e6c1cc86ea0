# End-to-end smoke of the model_ctl CLI (tools/model_ctl.cpp): profiles a
# tiny kmeans model, saves it, inspects it, validates it, warm-starts a
# guided run from it with no profiling in that process, and diffs it
# against itself — the diff of a model against its own file must exit 0
# (structural identity goes through the canonical model document, so this
# also smokes the text-identical round trip on a real trained model) —
# and against a model trained at another thread count, which must exit 1.
# It then reads the benchmark's pinned models (read only) and refuses a
# truncated file and a directory. Invoked by ctest via the
# `model_ctl_smoke` test:
#
#   cmake -DMODEL_CTL=<path> -DWORK_DIR=<dir> -DE2E_MODELS=<dir>
#         -P ModelCtlSmoke.cmake

if(NOT MODEL_CTL OR NOT WORK_DIR OR NOT E2E_MODELS)
  message(FATAL_ERROR
      "usage: cmake -DMODEL_CTL=<bin> -DWORK_DIR=<dir> -DE2E_MODELS=<dir> "
      "-P ModelCtlSmoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(MODEL ${WORK_DIR}/smoke.json)

execute_process(
  COMMAND ${MODEL_CTL} save --workload=kmeans --size=small --threads=4
          --runs=2 --out=${MODEL}
  RESULT_VARIABLE SaveRc)
if(NOT SaveRc EQUAL 0)
  message(FATAL_ERROR "model_ctl save failed (${SaveRc})")
endif()
if(NOT EXISTS ${MODEL})
  message(FATAL_ERROR "model_ctl save produced no file at ${MODEL}")
endif()

execute_process(
  COMMAND ${MODEL_CTL} info ${MODEL}
  OUTPUT_VARIABLE InfoOut
  RESULT_VARIABLE InfoRc)
if(NOT InfoRc EQUAL 0)
  message(FATAL_ERROR "model_ctl info failed (${InfoRc})")
endif()
if(NOT InfoOut MATCHES "top 10 states by outbound traffic")
  message(FATAL_ERROR "model_ctl info printed no hot-state listing:\n"
      "${InfoOut}")
endif()

# A model is a file: save needs --out, and there is no store to list.
execute_process(
  COMMAND ${MODEL_CTL} save --workload=kmeans --size=small --threads=4
          --runs=1
  RESULT_VARIABLE NoOutRc OUTPUT_QUIET ERROR_QUIET)
if(NOT NoOutRc EQUAL 2)
  message(FATAL_ERROR "model_ctl save without --out must exit 2, got "
      "${NoOutRc}")
endif()
execute_process(
  COMMAND ${MODEL_CTL} list
  RESULT_VARIABLE ListRc OUTPUT_QUIET ERROR_QUIET)
if(NOT ListRc EQUAL 2)
  message(FATAL_ERROR "model_ctl list must exit 2, got ${ListRc}")
endif()

execute_process(
  COMMAND ${MODEL_CTL} load ${MODEL}
  RESULT_VARIABLE LoadRc)
if(NOT LoadRc EQUAL 0)
  message(FATAL_ERROR "model_ctl load (validate) failed (${LoadRc})")
endif()

# Warm start: a guided measurement from the saved file profiles nothing.
execute_process(
  COMMAND ${MODEL_CTL} load ${MODEL} --run --workload=kmeans --size=small
          --threads=2 --runs=1
  OUTPUT_VARIABLE RunOut
  RESULT_VARIABLE RunRc)
if(NOT RunRc EQUAL 0 OR NOT RunOut MATCHES ", 0 profiling commits")
  message(FATAL_ERROR "model_ctl load --run must exit 0 and profile "
      "nothing, got ${RunRc}:\n${RunOut}")
endif()

# Acceptance check: a model diffed against itself reports identity.
execute_process(
  COMMAND ${MODEL_CTL} diff ${MODEL} ${MODEL}
  RESULT_VARIABLE DiffRc)
if(NOT DiffRc EQUAL 0)
  message(FATAL_ERROR "model_ctl diff of a model against itself "
      "must exit 0, got ${DiffRc}")
endif()

# A model trained at another thread count differs (exit 1) and the diff
# reports the state overlap.
set(OTHER ${WORK_DIR}/other.json)
execute_process(
  COMMAND ${MODEL_CTL} save --workload=kmeans --size=small --threads=2
          --runs=1 --out=${OTHER}
  RESULT_VARIABLE OtherRc OUTPUT_QUIET)
if(NOT OtherRc EQUAL 0)
  message(FATAL_ERROR "model_ctl save of the second model failed "
      "(${OtherRc})")
endif()
execute_process(
  COMMAND ${MODEL_CTL} diff ${MODEL} ${OTHER}
  OUTPUT_VARIABLE DiffOut
  RESULT_VARIABLE DiffRc)
if(NOT DiffRc EQUAL 1 OR NOT DiffOut MATCHES "shared states: [0-9]+ \\(")
  message(FATAL_ERROR "model_ctl diff of two different models must exit 1 "
      "and print the overlap, got ${DiffRc}:\n${DiffOut}")
endif()

# The benchmark's pinned models are model files like any other: both
# load, each is identical to itself, and the two differ.
set(GENOME ${E2E_MODELS}/genome_t2.json)
set(VACATION ${E2E_MODELS}/vacation_t2.json)
foreach(Pinned ${GENOME} ${VACATION})
  execute_process(
    COMMAND ${MODEL_CTL} load ${Pinned}
    OUTPUT_VARIABLE PinnedOut
    ERROR_VARIABLE PinnedErr
    RESULT_VARIABLE PinnedRc)
  if(NOT PinnedRc EQUAL 0)
    message(FATAL_ERROR "model_ctl load ${Pinned} must exit 0, got "
        "${PinnedRc}:\n${PinnedOut}${PinnedErr}")
  endif()
endforeach()
execute_process(
  COMMAND ${MODEL_CTL} diff ${GENOME} ${GENOME}
  RESULT_VARIABLE DiffRc OUTPUT_QUIET)
if(NOT DiffRc EQUAL 0)
  message(FATAL_ERROR "model_ctl diff of a pinned model against itself "
      "must exit 0, got ${DiffRc}")
endif()
execute_process(
  COMMAND ${MODEL_CTL} diff ${GENOME} ${VACATION}
  RESULT_VARIABLE DiffRc OUTPUT_QUIET)
if(NOT DiffRc EQUAL 1)
  message(FATAL_ERROR "model_ctl diff of the genome and vacation pinned "
      "models must exit 1, got ${DiffRc}")
endif()

# A truncated copy must be refused as corrupt (exit 2), never accepted and
# never a crash.
file(READ ${MODEL} ModelText)
string(LENGTH "${ModelText}" ModelLen)
math(EXPR HalfLen "${ModelLen} / 2")
string(SUBSTRING "${ModelText}" 0 ${HalfLen} BrokenText)
set(BROKEN ${WORK_DIR}/broken.json)
file(WRITE ${BROKEN} "${BrokenText}")
execute_process(
  COMMAND ${MODEL_CTL} info ${BROKEN}
  ERROR_VARIABLE BrokenErr
  RESULT_VARIABLE BrokenRc
  OUTPUT_QUIET)
if(NOT BrokenRc EQUAL 2 OR NOT BrokenErr MATCHES "corrupt")
  message(FATAL_ERROR "model_ctl info of a truncated model must exit 2 "
      "and report it corrupt, got ${BrokenRc}:\n${BrokenErr}")
endif()

# A directory is not a model: refused with an exit code, not an abort.
execute_process(
  COMMAND ${MODEL_CTL} load ${WORK_DIR}
  RESULT_VARIABLE DirRc OUTPUT_QUIET ERROR_QUIET)
if(DirRc EQUAL 0 OR DirRc EQUAL 134 OR NOT DirRc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "model_ctl load of a directory must exit non-zero "
      "without aborting, got ${DirRc}")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
message(STATUS "model_ctl smoke passed")
