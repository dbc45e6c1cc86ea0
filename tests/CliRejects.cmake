# Runs each front end with a shard, thread or ring size it cannot take and
# requires exit status 2 (usage error with a message). Without the checks
# these commands hang (a non-power-of-two shard count indexes past the
# stripe table), die with SIGFPE (zero shards or threads), undercount
# (more threads than StatsShardCount alias onto single-writer stats
# shards), or size the commit ring out of range (2^44 slots throw
# bad_alloc; a 64-bit shift is undefined and wrapped to one slot).
# Invoked by the `cli_rejects_bad_counts` ctest:
#
#   cmake -DCHECK_FUZZ=<check_fuzz> -DOLTP_YCSB=<oltp_ycsb> -P CliRejects.cmake

if(NOT CHECK_FUZZ OR NOT OLTP_YCSB)
  message(FATAL_ERROR
      "usage: cmake -DCHECK_FUZZ=<bin> -DOLTP_YCSB=<bin> -P CliRejects.cmake")
endif()

function(expect_usage_error)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err TIMEOUT 60)
  if(NOT Rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got '${Rc}' from: ${ARGN}")
  endif()
  message(STATUS "exit 2 as expected: ${ARGN}: ${Err}")
endfunction()

expect_usage_error(${OLTP_YCSB} --shards=3 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --threads=65 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --ring-bits=44 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --ring-bits=64 --records=64 --ops=64)
expect_usage_error(${CHECK_FUZZ} --backend=sharded --shards=3 --iters=1)
expect_usage_error(${CHECK_FUZZ} --backend=sharded --shards=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --workload=skiplist --threads=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --threads=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --backend=orec-eager --threads=65 --iters=4)
