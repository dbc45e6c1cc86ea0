# Configures, builds, and runs a ThreadSanitizer smoke of the concurrency
# tests in a dedicated sub-build (-DGSTM_ENABLE_TSAN=ON). Invoked by ctest
# via the `tsan_smoke` test registered in tests/CMakeLists.txt:
#
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<build>/tsan-smoke -P TsanSmoke.cmake
#
# The smoke focuses on the racy-by-construction paths: the sharded stats
# subsystem (single-writer relaxed increments, concurrent aggregation),
# the TL2 runtime's multi-threaded tests and the guided controller. A data race anywhere in those
# paths makes TSan exit non-zero and fails the test.

if(NOT SOURCE_DIR OR NOT BUILD_DIR)
  message(FATAL_ERROR
      "usage: cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<dir> -P TsanSmoke.cmake")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DGSTM_ENABLE_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE ConfigureRc)
if(NOT ConfigureRc EQUAL 0)
  message(FATAL_ERROR "tsan sub-build configure failed (${ConfigureRc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
          --target stats_test tl2_test minivector_test latency_histogram_test
                   tmds_test engine_test shard_test libtm_test controller_test
                   pool_test containers_test
  RESULT_VARIABLE BuildRc)
if(NOT BuildRc EQUAL 0)
  message(FATAL_ERROR "tsan sub-build compile failed (${BuildRc})")
endif()

# halt_on_error makes the first race fatal instead of a warning, so the
# exit code reflects it even if the test logic would still pass.
set(ENV{TSAN_OPTIONS} "halt_on_error=1")

execute_process(
  COMMAND ${BUILD_DIR}/tests/stats_test
          --gtest_filter=StatsShardTest.*:StatsAttributionTest.*
  RESULT_VARIABLE StatsRc)
if(NOT StatsRc EQUAL 0)
  message(FATAL_ERROR "stats_test failed under tsan (${StatsRc})")
endif()

# The concurrent TL2 tests drive the single-fence commit publication —
# the relaxed stripe-version stores behind one release fence — so TSan
# checks it against real racing readers, and against two committers
# publishing into one lock-table line (engine_test below adds the
# typed concurrent-increment cases on flat and sharded TL2).
execute_process(
  COMMAND ${BUILD_DIR}/tests/tl2_test
          --gtest_filter=Tl2Test.BankTransfer*:Tl2Test.Snapshot*:Tl2Test.AbortEvents*:Tl2Test.AdjacentWordsOfOneLineNeverConflict
  RESULT_VARIABLE Tl2Rc)
if(NOT Tl2Rc EQUAL 0)
  message(FATAL_ERROR "tl2_test failed under tsan (${Tl2Rc})")
endif()

# LibTm's objects are TL2's multi-word snapshot: the payload words are
# copied between two loads of the object's orec and published behind the
# commit's release fence, so TSan sees torn-snapshot races directly.
execute_process(
  COMMAND ${BUILD_DIR}/tests/libtm_test
          --gtest_filter=LibTmTest.SnapshotOfMultiWordObjectNeverTorn:LibTmTest.ConcurrentCountersLoseNoUpdates
  RESULT_VARIABLE LibTmRc)
if(NOT LibTmRc EQUAL 0)
  message(FATAL_ERROR "libtm_test failed under tsan (${LibTmRc})")
endif()

# The flat runtime keeps an object's orec in its Meta word, and TmList
# nodes are objects: one commit locking a word stripe and an object's
# Meta together, a walk across a peer's insert and value update, a
# transaction walking its own buffered link blocks, and threads racing
# inserts through shared list nodes.
execute_process(
  COMMAND ${BUILD_DIR}/tests/tl2_test --gtest_filter=Tl2ObjectOrecTest.*
  RESULT_VARIABLE Tl2ObjectRc)
if(NOT Tl2ObjectRc EQUAL 0)
  message(FATAL_ERROR "tl2_test object orecs failed under tsan (${Tl2ObjectRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tests/containers_test
          --gtest_filter=ListFixture.WalkAbortsOnPrefixInsertNotOnPassedValueUpdate:ListFixture.OneTransactionReadsThroughItsBufferedLinkBlocks:TmListConcurrency.*
  RESULT_VARIABLE ListRc)
if(NOT ListRc EQUAL 0)
  message(FATAL_ERROR "containers_test failed under tsan (${ListRc})")
endif()

# The guided controller reads the current state (an atomic) against its
# fixed policy while committing threads resolve new tuples under the
# pending-abort mutex and hand them to the tuple sink: one thread held at
# the gate until another commit moves the state, two held threads racing
# on the held count and live mask until the later one is released, four
# threads folding their aborts into one another's tuples, four committers
# racing to publish their tuples' states, and a 4-thread guided kmeans
# run streaming every tuple into a sink.
execute_process(
  COMMAND ${BUILD_DIR}/tests/controller_test
          --gtest_filter=GuideControllerTest.HeldThreadReleasedByStateChange:GuideControllerTest.AllLiveWorkersHeldReleasesLatestArrivalAtOnce:GuideControllerTest.ConcurrentAbortsFoldIntoExactlyOneTuple:GuideControllerTest.CurrentStateIsTheNewestTuplesState:GuideControllerTest.RunnerSinkSeesEveryGuidedCommit
  RESULT_VARIABLE ControllerRc)
if(NOT ControllerRc EQUAL 0)
  message(FATAL_ERROR "controller_test failed under tsan (${ControllerRc})")
endif()

# The transactional skiplist/B-tree publish pool-allocated nodes through
# STM stores while peers traverse them; the partitioned-mutation test
# races real inserts/removes across threads. The histogram's merge path
# (per-thread recording, post-join merge) rides along — both are exactly
# where an unsynchronized publish would hide. The two B-tree key-block
# tests run a transaction's snapshot reads and whole-block writes of its
# own key blocks, and a descent across another descriptor's commit, on
# every backend.
execute_process(
  COMMAND ${BUILD_DIR}/tests/tmds_test
          --gtest_filter=TmdsTest/*.ConcurrentPartitionedMutationIsExact:TmBTreeKeyBlockTest/*.TransactionReadsItsOwnKeyBlockWrites:TmBTreeKeyBlockTest/*.DescentConflictsWithKeyChangesNotValueUpdates
  RESULT_VARIABLE TmdsRc)
if(NOT TmdsRc EQUAL 0)
  message(FATAL_ERROR "tmds_test failed under tsan (${TmdsRc})")
endif()

# TmPool's bump pointer hands out unique indexes to racing allocators on
# a small arena and on a huge-page-aligned large one, and each node is
# constructed before the workers start and destroyed after they join.
execute_process(
  COMMAND ${BUILD_DIR}/tests/pool_test
  RESULT_VARIABLE PoolRc)
if(NOT PoolRc EQUAL 0)
  message(FATAL_ERROR "pool_test failed under tsan (${PoolRc})")
endif()

# The engine family's racy-by-construction paths, through the typed
# suite over every chassis policy (TL2 flat and on 4 shards, orec-eager):
# orec CAS acquisition against racing validators, orec-eager's in-place
# writes and undo replay under held orecs, and the foreign-exception
# rollback.
execute_process(
  COMMAND ${BUILD_DIR}/tests/engine_test
  RESULT_VARIABLE EngineRc)
if(NOT EngineRc EQUAL 0)
  message(FATAL_ERROR "engine_test failed under tsan (${EngineRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tests/latency_histogram_test
  RESULT_VARIABLE HistRc)
if(NOT HistRc EQUAL 0)
  message(FATAL_ERROR "latency_histogram_test failed under tsan (${HistRc})")
endif()

# The sharded tier's cross-shard 2PC publishes one commit through
# several lock tables and applied clocks behind a single release fence;
# the concurrent-increments test races four real writer threads through
# that path, and the steering listener's SPSC lanes ride along. TSan
# sees the relaxed stripe stores directly against racing validators.
execute_process(
  COMMAND ${BUILD_DIR}/tests/shard_test
          --gtest_filter=TwoShardFixture.*:SteeringTest.*
  RESULT_VARIABLE ShardRc)
if(NOT ShardRc EQUAL 0)
  message(FATAL_ERROR "shard_test failed under tsan (${ShardRc})")
endif()

# Containers are single-owner by design; running their suite under TSan
# asserts that no hidden sharing crept into the grow/clear paths.
execute_process(
  COMMAND ${BUILD_DIR}/tests/minivector_test
  RESULT_VARIABLE MiniRc)
if(NOT MiniRc EQUAL 0)
  message(FATAL_ERROR "minivector_test failed under tsan (${MiniRc})")
endif()

message(STATUS "tsan smoke passed")
