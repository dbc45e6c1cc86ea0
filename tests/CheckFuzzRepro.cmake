# A failing check_fuzz seed must print a repro line that re-runs it: the
# torn-publish mutant on flat TL2 fails within 32 seeds, and its repro
# line must carry the plan shape, the yield density and the fault flag,
# not only the seed.
# Invoked by the `check_fuzz_repro_line` ctest:
#
#   cmake -DCHECK_FUZZ=<check_fuzz> -P CheckFuzzRepro.cmake

if(NOT CHECK_FUZZ)
  message(FATAL_ERROR "usage: cmake -DCHECK_FUZZ=<bin> -P CheckFuzzRepro.cmake")
endif()

execute_process(
  COMMAND ${CHECK_FUZZ} --backend=tl2-lazy --inject-torn-publish
          --threads=3 --txns=16 --iters=32
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(Rc EQUAL 0)
  message(FATAL_ERROR "the torn-publish mutant passed 32 seeds\n${Out}${Err}")
endif()
string(REGEX MATCH "repro: [^\n]*" Repro "${Out}")
if(NOT Repro)
  message(FATAL_ERROR "no repro line in the output\n${Out}${Err}")
endif()
foreach(Flag --threads=3 --txns=16 --perturb-shift=1 --inject-torn-publish)
  string(FIND "${Repro}" " ${Flag}" At)
  if(At EQUAL -1)
    message(FATAL_ERROR "repro line lacks ${Flag}: ${Repro}")
  endif()
endforeach()
message(STATUS "exit ${Rc}; ${Repro}")
