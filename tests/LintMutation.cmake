# Mutation self-test for the stm_lint memory-ordering pass (ctest
# lint_mutation). Copies the engine sources into a scratch tree, applies
# one ordering mutant at a time — deleting the seq_cst fence from each
# single-fence commit path, deleting the writeback->publish release
# fence, downgrading orec-eager's abort-path orec restore to relaxed —
# and asserts stm_lint fails each mutant with the right
# O-rule and path label, while the pristine copy stays clean. This is
# the executable proof that re-removing the 5343567 store-buffering
# fence cannot land silently.
#
# Inputs: -DSTM_LINT=<stm_lint binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir>

foreach(VAR STM_LINT SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "LintMutation.cmake: ${VAR} not set")
  endif()
endforeach()

# Fresh copy of every directory the ordering contracts live in.
function(reset_tree)
  file(REMOVE_RECURSE ${WORK_DIR}/src)
  file(COPY ${SOURCE_DIR}/src/stm ${SOURCE_DIR}/src/engine
            ${SOURCE_DIR}/src/shard
       DESTINATION ${WORK_DIR}/src)
endfunction()

# Applies one textual mutant; a MATCH that no longer appears in FILE is
# a hard error — the mutation corpus must never rot into no-ops.
function(mutate FILE MATCH REPLACE)
  file(READ ${WORK_DIR}/${FILE} OLD)
  string(REPLACE "${MATCH}" "${REPLACE}" NEW "${OLD}")
  if(NEW STREQUAL OLD)
    message(FATAL_ERROR
      "lint_mutation: pattern not found in ${FILE}: ${MATCH}")
  endif()
  file(WRITE ${WORK_DIR}/${FILE} "${NEW}")
endfunction()

# Runs stm_lint over the scratch tree and asserts exit code + output.
function(run_lint LABEL EXPECT_RC)
  execute_process(
    COMMAND ${STM_LINT} --root=${WORK_DIR} src
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC EQUAL ${EXPECT_RC})
    message(FATAL_ERROR "lint_mutation[${LABEL}]: expected exit "
      "${EXPECT_RC}, got ${RC}\n${OUT}${ERR}")
  endif()
  foreach(PATTERN ${ARGN})
    string(FIND "${OUT}" "${PATTERN}" AT)
    if(AT EQUAL -1)
      message(FATAL_ERROR "lint_mutation[${LABEL}]: output lacks "
        "\"${PATTERN}\"\n${OUT}${ERR}")
    endif()
  endforeach()
  message(STATUS "lint_mutation[${LABEL}]: ok")
endfunction()

set(SEQ_FENCE "std::atomic_thread_fence(std::memory_order_seq_cst);")

# Control: the pristine tree must be clean, or every mutant result is
# noise.
reset_tree()
run_lint(pristine 0)

# Fence deletion from each single-fence commit path -> O3 names the path.
# The TL2 policy's commit (engine/Tl2.h) is the one commit of the flat,
# the sharded and the object (LibTm) runtimes.
reset_tree()
mutate(src/engine/Tl2.h "${SEQ_FENCE}" "")
run_lint(tl2-fence-removed 1 "[O3]"
         "Tl2Policy::commit single-fence commit")

reset_tree()
mutate(src/engine/OrecEager.h "${SEQ_FENCE}" "")
run_lint(orec-fence-removed 1 "[O3]"
         "OrecEagerPolicy::commit single-fence commit")

# Weakening the fence is as fatal as deleting it.
reset_tree()
mutate(src/engine/Tl2.h "${SEQ_FENCE}"
       "std::atomic_thread_fence(std::memory_order_acquire);")
run_lint(tl2-fence-weakened 1 "[O3]"
         "Tl2Policy::commit single-fence commit")

# Deleting the writeback->publish release fence leaves the relaxed
# version publishes behind the data writeback with only the earlier
# seq_cst fence before both -> O1 via each path's publish() contract.
set(RELEASE_FENCE "std::atomic_thread_fence(std::memory_order_release);")

reset_tree()
mutate(src/engine/Tl2.h "${RELEASE_FENCE}" "")
run_lint(tl2-release-fence-removed 1 "[O1]" "stripeAt")

# Torn rollback: orec-eager's abort path restores the pre-lock orec word
# after replaying the undo log; a relaxed restore lets a reader see the
# old version before the old data -> O1.
reset_tree()
mutate(src/engine/OrecEager.h
       ".store(It->PreviousWord, std::memory_order_release)"
       ".store(It->PreviousWord, std::memory_order_relaxed)")
run_lint(orec-torn-rollback 1 "[O1]" "stripeAt")

reset_tree()
message(STATUS "lint_mutation: all mutants flagged, pristine clean")
