# Small-scale smoke of the paper drivers. paper_stamp, on two benchmarks
# (kmeans and ssca2, the Figure 8 row) at two thread counts, must print
# the heading of every table and figure it reproduces, a Table IV cell
# with its default and guided abort maxima per thread count, run each
# (benchmark, threads) experiment exactly once and write exactly one
# --json-dir export per experiment. paper_synquake on a tiny map must
# print Table V and Figures 11 and 12. Both must print a `forced yields`
# line per thread count, "on" exactly when the workers outnumber the
# usable CPUs. Invoked by the `paper_smoke` ctest:
#
#   cmake -DPAPER_STAMP=<paper_stamp> -DPAPER_SYNQUAKE=<paper_synquake>
#         -DWORK_DIR=<dir> -P PaperSmoke.cmake

if(NOT PAPER_STAMP OR NOT PAPER_SYNQUAKE OR NOT WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DPAPER_STAMP=<bin> -DPAPER_SYNQUAKE=<bin> "
      "-DWORK_DIR=<dir> -P PaperSmoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# expect_headings(<output> <regex>...): each "== <regex>" heading appears
# in <output>.
function(expect_headings Out)
  foreach(Heading ${ARGN})
    if(NOT Out MATCHES "== ${Heading}")
      message(FATAL_ERROR "no '== ${Heading}' heading in:\n${Out}")
    endif()
  endforeach()
endfunction()

# expect_forced_yields(<output> <threads>...): one forced-yields line per
# thread count, "on" exactly when the workers outnumber the usable CPUs.
function(expect_forced_yields Out)
  foreach(Threads ${ARGN})
    set(Line "forced yields: (on|off) \\(${Threads} workers, ([0-9]+) ")
    if(NOT Out MATCHES "${Line}usable CPUs\\)")
      message(FATAL_ERROR
          "no forced-yields line for ${Threads} workers in:\n${Out}")
    endif()
    set(Want off)
    if(Threads GREATER CMAKE_MATCH_2)
      set(Want on)
    endif()
    if(NOT CMAKE_MATCH_1 STREQUAL Want)
      message(FATAL_ERROR "forced yields ${CMAKE_MATCH_1} for ${Threads} "
                          "workers on ${CMAKE_MATCH_2} CPUs, want ${Want}")
    endif()
  endforeach()
endfunction()

execute_process(
  COMMAND ${PAPER_STAMP} --workloads=kmeans,ssca2 --threads=2,3
          --size=small --train-size=small --profile-runs=1 --runs=1
          --json-dir=${WORK_DIR}
  RESULT_VARIABLE StampRc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT StampRc EQUAL 0)
  message(FATAL_ERROR "paper_stamp failed (${StampRc}):\n${Out}${Err}")
endif()
expect_forced_yields("${Out}" 2 3)
expect_headings("${Out}" "Table I:" "Table III:" "Table IV:" "Figure 3:"
                "Figure 8:" "Figure 9:" "Figure 10:")
foreach(Threads 2 3)
  expect_headings("${Out}" "Figures 4/6:[^\n]*, ${Threads} threads =="
                  "Figures 5/7:[^\n]*, ${Threads} threads ==")
endforeach()
# Each Table IV row holds one "<cut>% (max <default>→<guided>)" cell per
# thread count.
string(REGEX MATCH "== Table IV:.*== Figure 3:" Table4 "${Out}")
set(Cell " +-?[0-9]+% \\(max [0-9]+→[0-9]+\\)")
foreach(Workload kmeans ssca2)
  if(NOT Table4 MATCHES "\n${Workload}${Cell}${Cell}\n")
    message(FATAL_ERROR "no Table IV row '${Workload}' with two "
                        "'<cut>% (max D→G)' cells in:\n${Table4}")
  endif()
endforeach()

set(Want kmeans_t2.json kmeans_t3.json ssca2_t2.json ssca2_t3.json)
file(GLOB Exports RELATIVE ${WORK_DIR} ${WORK_DIR}/*)
list(SORT Exports)
if(NOT Exports STREQUAL Want)
  message(FATAL_ERROR "expected exports '${Want}', found '${Exports}'")
endif()
foreach(Pair "kmeans at 2" "kmeans at 3" "ssca2 at 2" "ssca2 at 3")
  string(REGEX MATCHALL "running ${Pair} threads" Runs "${Err}")
  list(LENGTH Runs NumRuns)
  if(NOT NumRuns EQUAL 1)
    message(FATAL_ERROR "${Pair} threads ran ${NumRuns} times:\n${Err}")
  endif()
endforeach()

execute_process(
  COMMAND ${PAPER_SYNQUAKE} --threads=2 --players=20 --frames=2
          --train-frames=2 --profile-runs=1 --runs=1
  RESULT_VARIABLE SynQuakeRc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT SynQuakeRc EQUAL 0)
  message(FATAL_ERROR "paper_synquake failed (${SynQuakeRc}):\n${Out}${Err}")
endif()
expect_headings("${Out}" "Table V:" "Figure 11:" "Figure 12:")
expect_forced_yields("${Out}" 2)

file(REMOVE_RECURSE ${WORK_DIR})
message(STATUS "paper driver checks passed")
