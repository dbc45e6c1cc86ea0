# Configures, builds, and runs an Address+UndefinedBehaviorSanitizer smoke
# in a dedicated sub-build (-DGSTM_ENABLE_ASAN=ON). Invoked by ctest via
# the `asan_smoke` test registered in tests/CMakeLists.txt:
#
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<build>/asan-smoke -P AsanSmoke.cmake
#
# The smoke focuses on the allocation-heavy paths: the TL2 read/write
# sets and lock table, and the check-subsystem fuzzer, which drives every
# STM backend through randomized transaction mixes (so use-after-
# free or UB in any engine's hot path trips the sanitizer). Any report
# makes the instrumented binary exit non-zero and fails the test.

if(NOT SOURCE_DIR OR NOT BUILD_DIR)
  message(FATAL_ERROR
      "usage: cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<dir> -P AsanSmoke.cmake")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DGSTM_ENABLE_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE ConfigureRc)
if(NOT ConfigureRc EQUAL 0)
  message(FATAL_ERROR "asan sub-build configure failed (${ConfigureRc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
          --target tl2_test check_fuzz model_lifecycle_test minivector_test
                   latency_histogram_test tmds_test engine_test pool_test
  RESULT_VARIABLE BuildRc)
if(NOT BuildRc EQUAL 0)
  message(FATAL_ERROR "asan sub-build compile failed (${BuildRc})")
endif()

# Make the first finding fatal and UBSan reports hard errors, so the exit
# code reflects them even when the test logic would still pass.
set(ENV{ASAN_OPTIONS} "halt_on_error=1:detect_leaks=1")
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")

execute_process(
  COMMAND ${BUILD_DIR}/tests/tl2_test
  RESULT_VARIABLE Tl2Rc)
if(NOT Tl2Rc EQUAL 0)
  message(FATAL_ERROR "tl2_test failed under asan (${Tl2Rc})")
endif()

# The backend matrix includes orec-eager, whose in-place undo writes are
# a prime use-after-rollback candidate.
execute_process(
  COMMAND ${BUILD_DIR}/tools/check_fuzz --iters=64
  RESULT_VARIABLE FuzzRc)
if(NOT FuzzRc EQUAL 0)
  message(FATAL_ERROR "check_fuzz failed under asan (${FuzzRc})")
endif()

# Engine family unit+concurrency suite over every chassis policy (TL2
# flat and on 4 shards, orec-eager): the per-policy undo/lock-release
# paths, on abort and on a foreign exception.
execute_process(
  COMMAND ${BUILD_DIR}/tests/engine_test
  RESULT_VARIABLE EngineRc)
if(NOT EngineRc EQUAL 0)
  message(FATAL_ERROR "engine_test failed under asan (${EngineRc})")
endif()

# Transaction-log containers: the grow/relocate/alias paths in
# MiniVector and PtrIndexMap are exactly where a lifetime bug would
# live, and the uninstrumented test can pass while reading freed memory.
execute_process(
  COMMAND ${BUILD_DIR}/tests/minivector_test
  RESULT_VARIABLE MiniRc)
if(NOT MiniRc EQUAL 0)
  message(FATAL_ERROR "minivector_test failed under asan (${MiniRc})")
endif()

# The transactional data structures allocate nodes from TmPool arenas
# and publish them via STM stores; aborted inserts leak their nodes by
# design. The structure tests plus a short differential fuzz run cover
# the node lifecycle (and the histogram's bucket math) under ASan/UBSan.
execute_process(
  COMMAND ${BUILD_DIR}/tests/latency_histogram_test
  RESULT_VARIABLE HistRc)
if(NOT HistRc EQUAL 0)
  message(FATAL_ERROR "latency_histogram_test failed under asan (${HistRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tests/tmds_test
  RESULT_VARIABLE TmdsRc)
if(NOT TmdsRc EQUAL 0)
  message(FATAL_ERROR "tmds_test failed under asan (${TmdsRc})")
endif()
# TmPool's arenas: a huge-page-aligned allocation and its custom deleter
# (destroy every node, then free at the alignment it was allocated with)
# on the large path, and the plain allocation on the small one.
execute_process(
  COMMAND ${BUILD_DIR}/tests/pool_test
  RESULT_VARIABLE PoolRc)
if(NOT PoolRc EQUAL 0)
  message(FATAL_ERROR "pool_test failed under asan (${PoolRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tools/check_fuzz --workload=skiplist --iters=32
  RESULT_VARIABLE SkipFuzzRc)
if(NOT SkipFuzzRc EQUAL 0)
  message(FATAL_ERROR "skiplist fuzz failed under asan (${SkipFuzzRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tools/check_fuzz --workload=btree --iters=32
  RESULT_VARIABLE BtreeFuzzRc)
if(NOT BtreeFuzzRc EQUAL 0)
  message(FATAL_ERROR "btree fuzz failed under asan (${BtreeFuzzRc})")
endif()

# Sharded tier: the 2PC prepare/publish walk iterates per-shard lock
# table slices and MiniVector-backed acquisition logs — exactly where an
# off-by-one over the combined (shard, stripe) keys would read out of
# bounds. The runs above cover 4 shards; this one the widest key space.
execute_process(
  COMMAND ${BUILD_DIR}/tools/check_fuzz --backend=sharded --shards=64
          --iters=32
  RESULT_VARIABLE ShardFuzzRc)
if(NOT ShardFuzzRc EQUAL 0)
  message(FATAL_ERROR "sharded fuzz failed under asan (${ShardFuzzRc})")
endif()

# Model-loader robustness: the serialization round-trip and corruption
# fuzz suites exercise every bounds check in the deserializer — a single
# out-of-range read on a mutated payload trips ASan/UBSan here even if
# the uninstrumented test would still "pass".
execute_process(
  COMMAND ${BUILD_DIR}/tests/model_lifecycle_test
          --gtest_filter=Serialize*
  RESULT_VARIABLE ModelRc)
if(NOT ModelRc EQUAL 0)
  message(FATAL_ERROR "model loader fuzz failed under asan (${ModelRc})")
endif()

message(STATUS "asan smoke passed")
