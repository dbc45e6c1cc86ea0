//===- tests/shard_test.cpp - Sharded STM tier tests ----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The sharded tier (src/shard) in four tiers: configuration and placement
// plumbing, the ShardedTxn commit protocol against a live runtime
// (single- and cross-shard, applied-clock publication, exact telemetry),
// the steering learner's ingest/drain/build loop, and the mutation
// self-tests — the torn-coordinated-publish and skipped-validation faults
// must be flagged by the history checkers, not merely by final-state sums.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "shard/ShardConfig.h"
#include "shard/Sharded.h"
#include "shard/Steering.h"
#include "stm/TVar.h"

#include "gtest/gtest.h"

#include <thread>

using namespace gstm;

namespace {

//===----------------------------------------------------------------------===//
// Configuration and placement plumbing
//===----------------------------------------------------------------------===//

TEST(ShardPlacementTest, LookupResolvesRangesAndRejectsUnmapped) {
  uint64_t Arr[8] = {};
  ShardPlacement P;
  P.addRange(&Arr[0], &Arr[2], 3);
  P.addRange(&Arr[4], &Arr[6], 1);
  P.finalize();
  EXPECT_EQ(P.lookup(&Arr[0]), 3);
  EXPECT_EQ(P.lookup(&Arr[1]), 3);
  EXPECT_EQ(P.lookup(&Arr[2]), -1); // end is exclusive
  EXPECT_EQ(P.lookup(&Arr[4]), 1);
  EXPECT_EQ(P.lookup(&Arr[7]), -1);
}

TEST(ShardedStmTest, PlacementOverridesAddressHash) {
  ShardConfig SC;
  SC.ShardCount = 4;
  SC.TableBits = 8;
  ShardedStm Stm(SC);

  TVar<uint64_t> Cells[4];
  for (TVar<uint64_t> &C : Cells)
    EXPECT_LT(Stm.shardFor(&C.word()), 4u);

  ShardPlacement P;
  P.addRange(&Cells[0], &Cells[2], 2);
  P.finalize();
  Stm.setPlacement(&P);
  EXPECT_EQ(Stm.shardFor(&Cells[0].word()), 2u);
  EXPECT_EQ(Stm.shardFor(&Cells[1].word()), 2u);
  // Unmapped addresses fall back to the hash.
  EXPECT_LT(Stm.shardFor(&Cells[3].word()), 4u);
}

TEST(ShardedStmTest, SliceKeepsWordOffsetInLine) {
  // Words of one data line homed on one shard keep their line locality
  // inside that shard's slice: one 8-stripe run, one stripe per word.
  ShardConfig SC;
  SC.ShardCount = 4;
  SC.TableBits = 8;
  ShardedStm Stm(SC);
  alignas(64) TVar<uint64_t> Line[8];
  ShardPlacement P;
  P.addRange(&Line[0], &Line[8], 2);
  P.finalize();
  Stm.setPlacement(&P);
  LockTable &Locks = Stm.lockTable();
  const size_t First = Locks.indexOf(&Stm.stripeFor(&Line[0].word()));
  for (unsigned W = 0; W < 8; ++W) {
    const size_t Key = Locks.indexOf(&Stm.stripeFor(&Line[W].word()));
    EXPECT_EQ(Stm.groupOf(Key), 2u);
    EXPECT_EQ(Key >> 3, First >> 3);
    EXPECT_EQ(Key & 7, W);
  }
}

//===----------------------------------------------------------------------===//
// Commit protocol against a live runtime
//===----------------------------------------------------------------------===//

/// Two cells explicitly homed on shards 0 and 1 of a 4-shard runtime.
struct TwoShardFixture : ::testing::Test {
  TwoShardFixture() : Stm(config()) {
    A.storeDirect(10);
    B.storeDirect(20);
    Placement.addRange(&A, &A + 1, 0);
    Placement.addRange(&B, &B + 1, 1);
    Placement.finalize();
    Stm.setPlacement(&Placement);
  }
  static ShardConfig config() {
    ShardConfig SC;
    SC.ShardCount = 4;
    SC.TableBits = 8;
    return SC;
  }
  ShardedStm Stm;
  TVar<uint64_t> A, B;
  ShardPlacement Placement;
};

TEST_F(TwoShardFixture, SingleShardCommitDoesNotCountAsCrossShard) {
  ShardedTxn Txn(Stm, 0);
  Txn.run(0, [&](ShardedTxn &Tx) { Tx.store(A, Tx.load(A) + 1); });
  EXPECT_EQ(A.loadDirect(), 11u);

  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, 1u);
  EXPECT_EQ(Agg.CrossShardCommits, 0u);
  EXPECT_TRUE(Agg.consistent());
  // The writer's home shard saw the publish; shard 1 never advanced.
  EXPECT_EQ(Stm.appliedClockOf(0).sample(), Stm.clock().sample());
  EXPECT_EQ(Stm.appliedClockOf(1).sample(), 0u);
}

TEST_F(TwoShardFixture, CrossShardCommitRaisesEveryParticipantClock) {
  ShardedTxn Txn(Stm, 0);
  Txn.run(0, [&](ShardedTxn &Tx) {
    uint64_t VA = Tx.load(A);
    uint64_t VB = Tx.load(B);
    Tx.store(A, VA + VB);
    Tx.store(B, VB + 1);
  });
  EXPECT_EQ(A.loadDirect(), 30u);
  EXPECT_EQ(B.loadDirect(), 21u);

  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, 1u);
  EXPECT_EQ(Agg.CrossShardCommits, 1u);
  EXPECT_TRUE(Agg.consistent());

  // Both participants' applied clocks reached the commit version; the
  // untouched shards stayed at zero.
  uint64_t Wv = Stm.clock().sample();
  ASSERT_GT(Wv, 0u);
  EXPECT_EQ(Stm.appliedClockOf(0).sample(), Wv);
  EXPECT_EQ(Stm.appliedClockOf(1).sample(), Wv);
  EXPECT_EQ(Stm.appliedClockOf(2).sample(), 0u);
  EXPECT_EQ(Stm.appliedClockOf(3).sample(), 0u);

  EXPECT_TRUE(lockTableQuiescent(Stm.lockTable()));
}

TEST_F(TwoShardFixture, ReadOnlyCrossShardCommitAdvancesNothing) {
  ShardedTxn Txn(Stm, 0);
  uint64_t Sum = 0;
  Txn.run(0, [&](ShardedTxn &Tx) { Sum = Tx.load(A) + Tx.load(B); });
  EXPECT_EQ(Sum, 30u);

  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, 1u);
  EXPECT_EQ(Agg.ReadOnlyCommits, 1u);
  // Read-only commits take no locks and publish nothing, so a span of
  // two shards is not a cross-shard (2PC) commit.
  EXPECT_EQ(Agg.CrossShardCommits, 0u);
  EXPECT_EQ(Stm.clock().sample(), 0u);
}

TEST_F(TwoShardFixture, ConcurrentCrossShardIncrementsAreExact) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 200;

  // Every transaction writes both shards, so every commit is a 2PC
  // commit and the telemetry must say exactly that.
  ShardSteering Steering(Threads, 4);
  Steering.registerGroup(0, &A, &A + 1);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ShardedTxn Txn(Stm, T);
      Txn.setCommitListener(&Steering);
      Txn.setAffinityGroup(0);
      for (uint64_t I = 0; I < PerThread; ++I)
        Txn.run(0, [&](ShardedTxn &Tx) {
          uint64_t VA = Tx.load(A);
          uint64_t VB = Tx.load(B);
          Tx.store(A, VA + 1);
          Tx.store(B, VB + 1);
        });
    });
  for (std::thread &W : Workers)
    W.join();

  constexpr uint64_t Total = uint64_t{Threads} * PerThread;
  EXPECT_EQ(A.loadDirect(), 10u + Total);
  EXPECT_EQ(B.loadDirect(), 20u + Total);

  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, Total);
  EXPECT_EQ(Agg.CrossShardCommits, Total);
  EXPECT_TRUE(Agg.consistent());
  EXPECT_TRUE(lockTableQuiescent(Stm.lockTable()));

  // The steering listener saw every commit as cross-shard traffic.
  EXPECT_EQ(Steering.drain(), Total);
  SteeringStats SS = Steering.stats();
  EXPECT_EQ(SS.Observed, Total);
  EXPECT_EQ(SS.Dropped, 0u);
  EXPECT_EQ(SS.CrossShardDrained, Total);
}

//===----------------------------------------------------------------------===//
// Steering learner
//===----------------------------------------------------------------------===//

TEST(SteeringTest, DrainBuildsPlacementOnDominantShard) {
  uint64_t GroupA[2] = {}, GroupB[2] = {};
  ShardSteering S(1, 4);
  S.registerGroup(7, &GroupA[0], &GroupA[2]);
  S.registerGroup(9, &GroupB[0], &GroupB[2]);

  // Group 7's commits touch shard 2 in every event (three of them also
  // drag shard 0 along); group 9 lives on shard 0 alone.
  for (int I = 0; I < 3; ++I)
    S.onShardCommit(0, 7, (1u << 2) | (1u << 0), true);
  for (int I = 0; I < 5; ++I)
    S.onShardCommit(0, 7, 1u << 2, false);
  for (int I = 0; I < 2; ++I)
    S.onShardCommit(0, 9, 1u << 0, false);

  EXPECT_EQ(S.drain(), 10u);
  SteeringStats SS = S.stats();
  EXPECT_EQ(SS.Drained, 10u);
  EXPECT_EQ(SS.CrossShardDrained, 3u);
  EXPECT_EQ(SS.Groups, 2u);

  ShardPlacement P = S.buildPlacement();
  EXPECT_EQ(P.lookup(&GroupA[0]), 2);
  EXPECT_EQ(P.lookup(&GroupA[1]), 2);
  EXPECT_EQ(P.lookup(&GroupB[0]), 0);
}

TEST(SteeringTest, UnregisteredGroupYieldsNoPlacementRange) {
  uint64_t Cell = 0;
  ShardSteering S(1, 4);
  S.onShardCommit(0, 42, 1u << 1, false);
  EXPECT_EQ(S.drain(), 1u);
  ShardPlacement P = S.buildPlacement();
  EXPECT_EQ(P.lookup(&Cell), -1);
}

TEST(SteeringTest, FullLaneDropsAndCounts) {
  SteeringConfig Cfg;
  Cfg.RingCapacity = 4;
  ShardSteering S(1, 2, Cfg);
  for (int I = 0; I < 10; ++I)
    S.onShardCommit(0, 1, 1u << 0, false);
  SteeringStats Before = S.stats();
  EXPECT_EQ(Before.Observed, 10u);
  EXPECT_EQ(Before.Dropped, 6u);
  EXPECT_EQ(S.drain(), 4u);
}

//===----------------------------------------------------------------------===//
// Differential fuzz smoke and the mutation self-test
//===----------------------------------------------------------------------===//

TEST(ShardFuzzTest, DifferentialSmokePasses) {
  // The whole matrix, sharded included, at the default shard count and at
  // the shards=1 degenerate, which must behave exactly like flat TL2.
  for (unsigned Shards : {4u, 1u})
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      FuzzConfig Cfg;
      Cfg.ShardCount = Shards;
      DifferentialResult D = runDifferential(Seed, Cfg);
      EXPECT_TRUE(D.passed())
          << Shards << " shards, seed " << Seed << ": " << D.Error;
    }
}

TEST(ShardFuzzTest, PlanPredictsCrossShardTraffic) {
  // At least one seed in a small window must exercise the 2PC path, or
  // the smoke above proves nothing about cross-shard commits.
  uint64_t Cross = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    FuzzRunResult R = runFuzzIteration(Seed, FuzzBackend::Sharded);
    EXPECT_TRUE(R.passed()) << "seed " << Seed << ": " << R.Error;
    EXPECT_EQ(R.CrossShardCommits, R.ExpectedCrossShardCommits);
    Cross += R.CrossShardCommits;
  }
  EXPECT_GT(Cross, 0u);
}

// The fault tears the coordinated publish: every participating shard's
// stripe versions go live at wv before any shard's data is written
// back. The opacity checker must flag the resulting executions (stale
// value under a fresh version / inconsistent snapshot) within 60 seeds;
// the clean smoke above proves the same seeds pass without the fault.
TEST(ShardMutationSelfTest, TornCoordinatedPublishIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.TornVersionPublish = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Sharded, Cfg), 3u)
      << "opacity checker failed to flag the torn coordinated publish";
}

// The fault drops commit-time validation from the 2PC: a commit that
// interleaved after an attempt's reads goes undetected, so lost updates
// and stale reads enter committed state and the checkers must object.
TEST(ShardMutationSelfTest, SkippedReadValidationIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Sharded, Cfg), 3u)
      << "checkers failed to flag the skipped 2PC read validation";
}

} // namespace
