//===- tests/libtm_test.cpp - object-based STM tests ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "libtm/LibTm.h"

#include "check/Fuzz.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

using namespace gstm;

namespace {
struct Vec3 {
  double X = 0, Y = 0, Z = 0;
};
} // namespace

TEST(LibTmTest, SingleThreadReadWrite) {
  LibTm Tm;
  TObj<uint64_t> X{5};
  LibTxn Txn(Tm, 0);
  Txn.run(0, [&](LibTxn &Tx) {
    EXPECT_EQ(Tx.read(X), 5u);
    Tx.write(X, uint64_t{9});
    EXPECT_EQ(Tx.read(X), 9u) << "read-after-write sees the buffer";
  });
  EXPECT_EQ(X.loadDirect(), 9u);
}

TEST(LibTmTest, MultiWordObjectsAreAtomic) {
  LibTm Tm;
  TObj<Vec3> V{Vec3{1, 2, 3}};
  LibTxn Txn(Tm, 0);
  Txn.run(0, [&](LibTxn &Tx) {
    Vec3 Val = Tx.read(V);
    EXPECT_DOUBLE_EQ(Val.Y, 2.0);
    Val.X = 10;
    Val.Z = 30;
    Tx.write(V, Val);
  });
  Vec3 After = V.loadDirect();
  EXPECT_DOUBLE_EQ(After.X, 10.0);
  EXPECT_DOUBLE_EQ(After.Y, 2.0);
  EXPECT_DOUBLE_EQ(After.Z, 30.0);
}

TEST(LibTmTest, AbortDiscardsBufferedWrites) {
  LibTm Tm;
  TObj<uint64_t> X{1};
  LibTxn Txn(Tm, 0);
  int Attempts = 0;
  Txn.run(0, [&](LibTxn &Tx) {
    Tx.write(X, uint64_t{77});
    if (++Attempts == 1)
      Tx.retryAbort();
  });
  EXPECT_EQ(Attempts, 2);
  EXPECT_EQ(X.loadDirect(), 77u);
  EXPECT_EQ(Tm.stats().aborts(), 1u);
}

TEST(LibTmTest, ConcurrentCountersLoseNoUpdates) {
  LibTm Tm;
  TObj<uint64_t> Counter{0};
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 150;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      LibTxn Txn(Tm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(0, [&](LibTxn &Tx) {
          Tx.write(Counter, Tx.read(Counter) + 1);
        });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter.loadDirect(), uint64_t{Threads} * PerThread);
}

TEST(LibTmTest, SnapshotOfMultiWordObjectNeverTorn) {
  // A writer keeps all three components equal; readers must never see a
  // mixed vector even though the payload spans three words.
  LibTm Tm;
  TObj<Vec3> V{Vec3{0, 0, 0}};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    LibTxn Txn(Tm, 0);
    for (int I = 1; I <= 300; ++I)
      Txn.run(0, [&](LibTxn &Tx) {
        Tx.write(V, Vec3{double(I), double(I), double(I)});
      });
    Stop.store(true);
  });
  std::thread Reader([&] {
    LibTxn Txn(Tm, 1);
    while (!Stop.load()) {
      Vec3 Val;
      Txn.run(1, [&](LibTxn &Tx) { Val = Tx.read(V); });
      if (Val.X != Val.Y || Val.Y != Val.Z)
        Violations.fetch_add(1);
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(LibTmTest, CrossObjectInvariantHolds) {
  // Transfers between two objects conserve the total.
  LibTm Tm;
  constexpr unsigned N = 16;
  std::vector<std::unique_ptr<TObj<int64_t>>> Accounts;
  for (unsigned I = 0; I < N; ++I)
    Accounts.push_back(std::make_unique<TObj<int64_t>>(100));

  constexpr unsigned Threads = 5;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      LibTxn Txn(Tm, static_cast<ThreadId>(T));
      SplitMix64 Rng(T + 3);
      for (int I = 0; I < 200; ++I) {
        unsigned From = Rng.nextBounded(N), To = Rng.nextBounded(N);
        int64_t Amt = static_cast<int64_t>(Rng.nextBounded(20));
        Txn.run(0, [&](LibTxn &Tx) {
          Tx.write(*Accounts[From], Tx.read(*Accounts[From]) - Amt);
          Tx.write(*Accounts[To], Tx.read(*Accounts[To]) + Amt);
        });
      }
    });
  for (auto &W : Workers)
    W.join();

  int64_t Total = 0;
  for (auto &A : Accounts)
    Total += A->loadDirect();
  EXPECT_EQ(Total, int64_t{N} * 100);
}

TEST(LibTmTest, ObserverSeesCommitsAndAborts) {
  LibTm Tm;
  TObj<uint64_t> X{0};
  struct Probe : TxEventObserver {
    std::atomic<uint64_t> Commits{0}, Aborts{0};
    void onCommit(const CommitEvent &) override { Commits.fetch_add(1); }
    void onAbort(const AbortEvent &) override { Aborts.fetch_add(1); }
  } Obs;
  Tm.setObserver(&Obs);

  constexpr unsigned Threads = 6;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      LibTxn Txn(Tm, static_cast<ThreadId>(T));
      for (int I = 0; I < 100; ++I)
        Txn.run(0,
                [&](LibTxn &Tx) { Tx.write(X, Tx.read(X) + 1); });
    });
  for (auto &W : Workers)
    W.join();

  EXPECT_EQ(Obs.Commits.load(), uint64_t{Threads} * 100);
  EXPECT_EQ(Obs.Aborts.load(), Tm.stats().aborts());
}

// LibTm runs the TL2 commit, so the TL2 mutants apply to it: the
// checkers must flag each within 60 seeds (engine_fuzz_libtm proves the
// same seeds pass without the fault).
TEST(LibTmMutationSelfTest, SkippedReadValidationIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::LibTm, Cfg), 3u)
      << "checkers failed to flag the skipped object validation";
}

TEST(LibTmMutationSelfTest, TornVersionPublishIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.TornVersionPublish = true;
  EXPECT_GE(checkerViolations(FuzzBackend::LibTm, Cfg), 3u)
      << "opacity checker failed to flag the torn object publish";
}
