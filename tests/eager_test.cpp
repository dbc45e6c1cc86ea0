//===- tests/eager_test.cpp - eager conflict-detection tests ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The paper argues (Sec. II) that demonstrating guided execution on lazy
// detection implies the eager case. Eager detection — encounter-time
// locking, write-through with undo — lives in the orec-eager engine; this
// suite pins its semantics directly, next to the typed EngineFamilyTest
// cases and the differential fuzz matrix.
//
//===----------------------------------------------------------------------===//

#include "engine/OrecEager.h"

#include "check/Fuzz.h"
#include "check/TmdsFuzz.h"
#include "stm/Perturb.h"
#include "stm/TVar.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace gstm;

TEST(EagerTest, SingleThreadReadWrite) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{5};
  OrecEagerTxn Txn(Stm, 0);
  Txn.run(0, [&](OrecEagerTxn &Tx) {
    EXPECT_EQ(Tx.load(X), 5u);
    Tx.store(X, 9);
    EXPECT_EQ(Tx.load(X), 9u) << "write-through must be readable in-txn";
  });
  EXPECT_EQ(X.loadDirect(), 9u);
}

TEST(EagerTest, AbortUndoesInPlaceWrites) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{1}, Y{2};
  OrecEagerTxn Txn(Stm, 0);
  int Attempts = 0;
  Txn.run(0, [&](OrecEagerTxn &Tx) {
    Tx.store(X, 100);
    Tx.store(Y, 200);
    Tx.store(X, 101); // second write to X: undo must restore the oldest
    if (++Attempts == 1) {
      // The in-place values are visible to ourselves pre-abort.
      EXPECT_EQ(Tx.load(X), 101u);
      Tx.retryAbort();
    }
  });
  EXPECT_EQ(Attempts, 2);
  EXPECT_EQ(X.loadDirect(), 101u);
  EXPECT_EQ(Y.loadDirect(), 200u);
}

TEST(EagerTest, UndoRestoresOriginalOnPermanentFields) {
  // Force exactly one abort: the rollback must restore the stale value
  // before the retry reads it, so the final committed state reflects
  // exactly one increment.
  OrecEagerStm Stm;
  TVar<uint64_t> X{7};
  OrecEagerTxn Txn(Stm, 0);
  int Attempts = 0;
  Txn.run(0, [&](OrecEagerTxn &Tx) {
    Tx.store(X, Tx.load(X) + 1);
    if (++Attempts == 1)
      Tx.retryAbort();
  });
  EXPECT_EQ(X.loadDirect(), 8u) << "rollback then exactly one increment";
}

TEST(EagerTest, WriterBlocksConflictingWriterImmediately) {
  // Eager writers to the same location: a loser aborts at encounter time
  // with a cause naming the owner; no increment may be lost.
  OrecEagerStm Stm;
  TVar<uint64_t> X{0};

  struct Probe : TxEventObserver {
    std::atomic<uint64_t> OwnerAborts{0};
    void onCommit(const CommitEvent &) override {}
    void onAbort(const AbortEvent &E) override {
      if (E.Kind == AbortCauseKind::KnownCommitter)
        OwnerAborts.fetch_add(1);
    }
  } Obs;
  Stm.setObserver(&Obs);

  constexpr unsigned Threads = 6;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      OrecEagerTxn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < 200; ++I)
        Txn.run(0, [&](OrecEagerTxn &Tx) { Tx.store(X, Tx.load(X) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(X.loadDirect(), 6u * 200u);
}

TEST(EagerTest, CounterUnderPreemptionLosesNothing) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{0};
  constexpr unsigned Threads = 8, PerThread = 300;
  SchedulePerturber Yields(Threads, /*Seed=*/1, nullptr, /*YieldShift=*/5);
  Stm.setAccessObserver(&Yields);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      OrecEagerTxn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(0, [&](OrecEagerTxn &Tx) { Tx.store(X, Tx.load(X) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(X.loadDirect(), uint64_t{Threads} * PerThread);
  EXPECT_GT(Stm.stats().aborts(), 0u)
      << "forced yields should force real conflicts";
}

TEST(EagerTest, BankConservationUnderContention) {
  OrecEagerStm Stm;
  constexpr unsigned N = 16;
  std::vector<std::unique_ptr<TVar<int64_t>>> Accounts;
  for (unsigned I = 0; I < N; ++I)
    Accounts.push_back(std::make_unique<TVar<int64_t>>(500));

  constexpr unsigned Threads = 6;
  SchedulePerturber Yields(Threads, /*Seed=*/1, nullptr, /*YieldShift=*/5);
  Stm.setAccessObserver(&Yields);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      OrecEagerTxn Txn(Stm, static_cast<ThreadId>(T));
      SplitMix64 Rng(T + 11);
      for (int I = 0; I < 250; ++I) {
        unsigned From = Rng.nextBounded(N), To = Rng.nextBounded(N);
        int64_t Amt = static_cast<int64_t>(Rng.nextBounded(30));
        Txn.run(0, [&](OrecEagerTxn &Tx) {
          Tx.store(*Accounts[From], Tx.load(*Accounts[From]) - Amt);
          Tx.store(*Accounts[To], Tx.load(*Accounts[To]) + Amt);
        });
      }
    });
  for (auto &W : Workers)
    W.join();

  int64_t Total = 0;
  for (auto &A : Accounts)
    Total += A->loadDirect();
  EXPECT_EQ(Total, int64_t{N} * 500);
}

TEST(EagerTest, SnapshotIsolationHolds) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{0}, Y{0};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    OrecEagerTxn Txn(Stm, 0);
    for (unsigned I = 1; I <= 400; ++I)
      Txn.run(0, [&](OrecEagerTxn &Tx) {
        Tx.store(X, I);
        Tx.store(Y, I);
      });
    Stop.store(true);
  });
  std::thread Reader([&] {
    OrecEagerTxn Txn(Stm, 1);
    while (!Stop.load()) {
      uint64_t A = 0, B = 0;
      Txn.run(1, [&](OrecEagerTxn &Tx) {
        A = Tx.load(X);
        B = Tx.load(Y);
      });
      if (A != B)
        Violations.fetch_add(1);
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(Violations.load(), 0u)
      << "readers must never observe a torn eager write pair";
}

TEST(EagerTest, AllWorkloadsVerifyUnderEagerDetection) {
  // Every check-harness workload that runs on the engine family — the
  // word-level read-modify-write plans and both tmds map structures —
  // must verify under eager locking (history checkers, lock residue,
  // oracle final state). The STAMP ports are TL2-typed and run lazy only.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    FuzzRunResult R = runFuzzIteration(Seed, FuzzBackend::OrecEager);
    EXPECT_TRUE(R.passed()) << "word seed " << Seed << ": " << R.Error;
    EXPECT_GT(R.Committed, 0u);
  }
  for (TmdsStructure S : {TmdsStructure::SkipList, TmdsStructure::BTree})
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      TmdsFuzzConfig Cfg;
      Cfg.Structure = S;
      FuzzRunResult R = runFuzzIteration(Seed, FuzzBackend::OrecEager, Cfg);
      EXPECT_TRUE(R.passed())
          << tmdsStructureName(S) << " seed " << Seed << ": " << R.Error;
      EXPECT_GT(R.Committed, 0u);
    }
}
