# End-to-end smoke of the model_ctl CLI (tools/model_ctl.cpp): profiles a
# tiny kmeans model, saves it, inspects it, validates it, warm-starts a
# guided run from it with no profiling in that process, and diffs it
# against itself — the diff of a model against its own file must exit 0
# (structural identity goes through the canonical serialized form, so this
# also smokes the byte-identical round trip on a real trained model) —
# and against a model trained at another thread count, which must exit 1.
# Invoked by ctest via the `model_ctl_smoke` test:
#
#   cmake -DMODEL_CTL=<path> -DWORK_DIR=<dir> -P ModelCtlSmoke.cmake

if(NOT MODEL_CTL OR NOT WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DMODEL_CTL=<bin> -DWORK_DIR=<dir> -P ModelCtlSmoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(MODEL ${WORK_DIR}/smoke.tsa)

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
set(OTHER ${WORK_DIR}/other.tsa)
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

# And a corrupted copy must be refused with a typed error (exit 2), never
# accepted and never a crash.
file(READ ${MODEL} ModelHex HEX)
string(LENGTH "${ModelHex}" HexLen)
math(EXPR TruncLen "${HexLen} / 2")
# Keep an even number of hex digits (whole bytes).
math(EXPR TruncLen "${TruncLen} - (${TruncLen} % 2)")
string(SUBSTRING "${ModelHex}" 0 ${TruncLen} TruncHex)
set(BROKEN ${WORK_DIR}/broken.tsa)
file(WRITE ${BROKEN} "")
string(REGEX MATCHALL ".." Bytes "${TruncHex}")
foreach(Byte ${Bytes})
  string(APPEND BrokenAscii "\\x${Byte}")
endforeach()
# CMake cannot write raw bytes portably from hex; round-trip through
# configure-time printf instead.
execute_process(
  COMMAND printf "%b" "${BrokenAscii}"
  OUTPUT_FILE ${BROKEN}
  RESULT_VARIABLE PrintfRc)
if(PrintfRc EQUAL 0)
  execute_process(
    COMMAND ${MODEL_CTL} info ${BROKEN}
    RESULT_VARIABLE BrokenRc)
  if(BrokenRc EQUAL 0)
    message(FATAL_ERROR "model_ctl accepted a truncated model file")
  endif()
else()
  message(STATUS "printf unavailable; skipping truncated-file check")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
message(STATUS "model_ctl smoke passed")
