//===- tests/contention_test.cpp - contention manager tests ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stm/Contention.h"

#include "engine/OrecEager.h"
#include "engine/Tl2.h"
#include "stm/TVar.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace gstm;

TEST(ContentionFactoryTest, CreatesByName) {
  for (const char *Name : {"polite", "karma", "greedy"}) {
    auto Cm = createContentionManager(Name);
    ASSERT_NE(Cm, nullptr) << Name;
    EXPECT_EQ(Cm->name(), Name);
  }
  EXPECT_EQ(createContentionManager("none"), nullptr);
  EXPECT_EQ(createContentionManager("bogus"), nullptr);
}

TEST(PoliteTest, BackoffGrowsWithAttemptsAndStaysBounded) {
  PoliteManager Cm;
  uint64_t EarlyMax = 0, LateMax = 0;
  for (int I = 0; I < 200; ++I) {
    EarlyMax = std::max(EarlyMax, Cm.onAbort(0, 0, false, /*Attempts=*/1, 10));
    LateMax = std::max(LateMax, Cm.onAbort(0, 0, false, /*Attempts=*/10, 10));
  }
  EXPECT_LE(EarlyMax, 200u) << "attempt-1 window is [0, 200) ns";
  EXPECT_GT(LateMax, EarlyMax) << "window must widen with retries";
  EXPECT_LE(LateMax, 100000u) << "capped at ~0.1 ms";
}

TEST(KarmaTest, HigherKarmaRetriesImmediately) {
  KarmaManager Cm;
  // Thread 0 invests lots of work; thread 1 little.
  EXPECT_EQ(Cm.onAbort(/*Thread=*/0, packPair(0, 1), true, 1, /*Opens=*/100),
            0u)
      << "no karma recorded for thread 1 yet: retry now";
  EXPECT_EQ(Cm.karmaOf(0), 100u);

  // Thread 1 conflicts with rich thread 0: must back off.
  uint64_t Backoff = Cm.onAbort(/*Thread=*/1, packPair(0, 0), true, 1,
                                /*Opens=*/5);
  EXPECT_GT(Backoff, 0u);

  // After thread 0 commits its karma resets; thread 1 now outranks it.
  Cm.onCommit(0, 100);
  EXPECT_EQ(Cm.karmaOf(0), 0u);
  EXPECT_EQ(Cm.onAbort(1, packPair(0, 0), true, 2, 5), 0u);
}

TEST(KarmaTest, KarmaAccumulatesAcrossRetries) {
  KarmaManager Cm;
  Cm.onAbort(3, 0, false, 1, 10);
  Cm.onAbort(3, 0, false, 2, 10);
  Cm.onAbort(3, 0, false, 3, 10);
  EXPECT_EQ(Cm.karmaOf(3), 30u)
      << "starved transactions accumulate priority";
}

TEST(GreedyTest, OlderTransactionWins) {
  GreedyManager Cm;
  Cm.onTxBegin(0); // older
  Cm.onTxBegin(1); // younger
  EXPECT_EQ(Cm.onAbort(/*Thread=*/0, packPair(0, 1), true, 1, 10), 0u)
      << "older transaction presses on";
  EXPECT_GT(Cm.onAbort(/*Thread=*/1, packPair(0, 0), true, 1, 10), 0u)
      << "younger transaction defers";

  // A fresh transaction on thread 0 is now younger than thread 1's.
  Cm.onTxBegin(0);
  EXPECT_GT(Cm.onAbort(0, packPair(0, 1), true, 1, 10), 0u);
  EXPECT_EQ(Cm.onAbort(1, packPair(0, 0), true, 1, 10), 0u);
}

TEST(GreedyTest, UnknownEnemyRetriesImmediately) {
  GreedyManager Cm;
  Cm.onTxBegin(2);
  EXPECT_EQ(Cm.onAbort(2, /*Enemy=*/0, false, 1, 10), 0u);
}

namespace {
/// Drives a contended counter under the given manager and checks
/// correctness + progress.
void runCounterUnder(ContentionManager *Cm) {
  Tl2Config Cfg;
  Cfg.PreemptShift = 5;
  Tl2Stm Stm(Cfg);
  Stm.setContentionManager(Cm);
  TVar<uint64_t> X{0};
  constexpr unsigned Threads = 6, PerThread = 200;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, Tx.load(X) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(X.loadDirect(), uint64_t{Threads} * PerThread);
}
} // namespace

TEST(ContentionIntegrationTest, AllManagersPreserveCorrectness) {
  for (const char *Name : {"polite", "karma", "greedy"}) {
    auto Cm = createContentionManager(Name);
    runCounterUnder(Cm.get());
  }
  runCounterUnder(nullptr); // yield fallback
}

TEST(ContentionIntegrationTest, ManagersWorkUnderEagerDetection) {
  for (const char *Name : {"polite", "karma", "greedy"}) {
    auto Cm = createContentionManager(Name);
    EngineConfig Cfg;
    Cfg.PreemptShift = 5;
    OrecEagerStm Stm(Cfg);
    Stm.setContentionManager(Cm.get());
    TVar<uint64_t> X{0};
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < 4; ++T)
      Workers.emplace_back([&, T] {
        OrecEagerTxn Txn(Stm, static_cast<ThreadId>(T));
        for (unsigned I = 0; I < 150; ++I)
          Txn.run(0, [&](OrecEagerTxn &Tx) { Tx.store(X, Tx.load(X) + 1); });
      });
    for (auto &W : Workers)
      W.join();
    EXPECT_EQ(X.loadDirect(), 600u) << Name;
  }
}
