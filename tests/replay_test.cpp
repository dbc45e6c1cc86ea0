//===- tests/replay_test.cpp - deterministic replay tests -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Replay.h"

#include "core/Trace.h"
#include "engine/Tl2.h"
#include "stm/TVar.h"
#include "support/Barrier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace gstm;

namespace {

/// Small contended workload: each of \p Threads workers increments a
/// shared counter \p PerThread times at site = its thread id (distinct
/// sites make schedules thread-specific).
std::vector<TxThreadPair> runCounter(Tl2Stm &Stm, unsigned Threads,
                                     unsigned PerThread,
                                     TVar<uint64_t> &Counter,
                                     CommitRecorder *Recorder) {
  if (Recorder)
    Stm.setObserver(Recorder);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(static_cast<TxId>(T),
                [&](Tl2Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  return Recorder ? Recorder->takeSchedule() : std::vector<TxThreadPair>{};
}

/// Gate budget for the tests that demand an exact replay. The default
/// 4096 yields pass within one scheduler quantum on a loaded 2-core
/// host, so a preempted turn holder got its waiters force-released and
/// the run diverged; a budget of 2^20 yields outlasts a preemption.
ReplayConfig exactReplay() {
  ReplayConfig Cfg;
  Cfg.MaxGateRetries = 1u << 20;
  return Cfg;
}

} // namespace

TEST(ReplayTest, RecorderCapturesEveryCommitInOrder) {
  Tl2Stm Stm;
  TVar<uint64_t> Counter{0};
  CommitRecorder Recorder;
  auto Schedule = runCounter(Stm, 4, 50, Counter, &Recorder);
  EXPECT_EQ(Schedule.size(), 200u);
  // Each thread contributed exactly PerThread commits at its own site.
  std::vector<unsigned> PerThread(4, 0);
  for (TxThreadPair P : Schedule) {
    EXPECT_EQ(pairTx(P), pairThread(P)) << "site == thread id here";
    ++PerThread[pairThread(P)];
  }
  for (unsigned N : PerThread)
    EXPECT_EQ(N, 50u);
}

TEST(ReplayTest, ReplayReproducesCommitOrderExactly) {
  // Record one run, then replay it: the replayed commit order must match
  // the schedule with zero divergences.
  Tl2Config Cfg;
  Cfg.PreemptShift = 5; // plenty of interleaving in the recording
  std::vector<TxThreadPair> Schedule;
  {
    Tl2Stm Stm(Cfg);
    TVar<uint64_t> Counter{0};
    CommitRecorder Recorder;
    Schedule = runCounter(Stm, 4, 40, Counter, &Recorder);
  }

  Tl2Stm Stm(Cfg);
  TVar<uint64_t> Counter{0};
  ReplayGate Gate(Schedule, exactReplay());
  CommitRecorder Check;

  struct Tee : TxEventObserver {
    TxEventObserver *A, *B;
    void onCommit(const CommitEvent &E) override {
      A->onCommit(E);
      B->onCommit(E);
    }
    void onAbort(const AbortEvent &E) override {
      A->onAbort(E);
      B->onAbort(E);
    }
  } Observer;
  Observer.A = &Gate;
  Observer.B = &Check;

  Stm.setGate(&Gate);
  Stm.setObserver(&Observer);
  // Replayed workers start together: a thread still being created when
  // its first turn comes up would force its peers to diverge.
  Barrier Start(4);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 4; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      Start.arriveAndWait();
      for (unsigned I = 0; I < 40; ++I)
        Txn.run(static_cast<TxId>(T),
                [&](Tl2Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
    });
  for (auto &W : Workers)
    W.join();

  EXPECT_EQ(Counter.loadDirect(), 160u);
  EXPECT_EQ(Gate.divergences(), 0u);
  EXPECT_EQ(Gate.cursor(), Schedule.size());
  EXPECT_EQ(Check.takeSchedule(), Schedule)
      << "replay must pin the exact commit order";
}

TEST(ReplayTest, ReplayedRunIsFullyDeterministicTwice) {
  Tl2Config Cfg;
  Cfg.PreemptShift = 5;
  std::vector<TxThreadPair> Schedule;
  {
    Tl2Stm Stm(Cfg);
    TVar<uint64_t> Counter{0};
    CommitRecorder Recorder;
    Schedule = runCounter(Stm, 3, 30, Counter, &Recorder);
  }

  auto ReplayOnce = [&] {
    Tl2Stm Stm(Cfg);
    TVar<uint64_t> Counter{0};
    ReplayGate Gate(Schedule, exactReplay());
    CommitRecorder Check;
    struct Tee : TxEventObserver {
      TxEventObserver *A, *B;
      void onCommit(const CommitEvent &E) override {
        A->onCommit(E);
        B->onCommit(E);
      }
      void onAbort(const AbortEvent &E) override {
        A->onAbort(E);
        B->onAbort(E);
      }
    } Observer;
    Observer.A = &Gate;
    Observer.B = &Check;
    Stm.setGate(&Gate);
    Stm.setObserver(&Observer);
    Barrier Start(3);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < 3; ++T)
      Workers.emplace_back([&, T] {
        Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
        Start.arriveAndWait();
        for (unsigned I = 0; I < 30; ++I)
          Txn.run(static_cast<TxId>(T), [&](Tl2Txn &Tx) {
            Tx.store(Counter, Tx.load(Counter) + 1);
          });
      });
    for (auto &W : Workers)
      W.join();
    return Check.takeSchedule();
  };

  EXPECT_EQ(ReplayOnce(), Schedule);
  EXPECT_EQ(ReplayOnce(), Schedule)
      << "two replays of one schedule must be identical";
}

TEST(ReplayTest, ScheduleLongerThanRunReleasesAllGatedThreads) {
  // Regression for the replay-divergence edge case: a schedule recorded
  // from a *longer* run than the one being replayed. After thread 0's 10
  // commits consume the first 10 schedule entries, the cursor points at
  // an entry ((0,0) again) that will never commit — threads 1 and 2 must
  // all be force-released after MaxGateRetries re-checks instead of
  // spinning at the gate forever.
  std::vector<TxThreadPair> Schedule;
  Schedule.insert(Schedule.end(), 20, packPair(0, 0));
  Schedule.insert(Schedule.end(), 10, packPair(1, 1));
  Schedule.insert(Schedule.end(), 10, packPair(2, 2));

  ReplayConfig RCfg;
  RCfg.MaxGateRetries = 3;
  Tl2Stm Stm;
  TVar<uint64_t> Counter{0};
  ReplayGate Gate(Schedule, RCfg);
  Stm.setGate(&Gate);
  Stm.setObserver(&Gate);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 3; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < 10; ++I)
        Txn.run(static_cast<TxId>(T),
                [&](Tl2Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
    });
  for (auto &W : Workers)
    W.join(); // joining at all is the point: nobody may hang at the gate

  EXPECT_EQ(Counter.loadDirect(), 30u);
  // Thread 0's commits are the only ones the schedule expects, so the
  // cursor stops exactly where the shorter run ran out of them; threads
  // 1 and 2 were released by divergence on every one of their starts
  // (aborted re-starts can add more).
  EXPECT_EQ(Gate.cursor(), 10u);
  EXPECT_GE(Gate.divergences(), 20u);
}

TEST(ReplayTest, ReplayProducesExactlyOneTtsSequence) {
  // The paper's framing of full determinism (DeSTM): a replayed run
  // exercises exactly one thread-transactional-state sequence. With zero
  // divergences the gate admits one transaction at a time, so a replay
  // has no aborts and its TTS sequence is the schedule itself, tuple for
  // tuple — and two replays of the same schedule agree exactly.
  Tl2Config Cfg;
  Cfg.PreemptShift = 5;
  std::vector<TxThreadPair> Schedule;
  {
    Tl2Stm Stm(Cfg);
    TVar<uint64_t> Counter{0};
    CommitRecorder Recorder;
    Schedule = runCounter(Stm, 3, 25, Counter, &Recorder);
  }

  auto ReplayTts = [&] {
    Tl2Stm Stm(Cfg);
    TVar<uint64_t> Counter{0};
    ReplayGate Gate(Schedule, exactReplay());
    TraceCollector Collector(3);
    struct Tee : TxEventObserver {
      TxEventObserver *A, *B;
      void onCommit(const CommitEvent &E) override {
        A->onCommit(E);
        B->onCommit(E);
      }
      void onAbort(const AbortEvent &E) override {
        A->onAbort(E);
        B->onAbort(E);
      }
    } Observer;
    Observer.A = &Gate;
    Observer.B = &Collector;
    Stm.setGate(&Gate);
    Stm.setObserver(&Observer);
    Barrier Start(3);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < 3; ++T)
      Workers.emplace_back([&, T] {
        Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
        Start.arriveAndWait();
        for (unsigned I = 0; I < 25; ++I)
          Txn.run(static_cast<TxId>(T), [&](Tl2Txn &Tx) {
            Tx.store(Counter, Tx.load(Counter) + 1);
          });
      });
    for (auto &W : Workers)
      W.join();
    EXPECT_EQ(Gate.divergences(), 0u);
    return groupTuples(Collector.takeTrace(), Grouping::Sequence);
  };

  std::vector<StateTuple> First = ReplayTts();
  ASSERT_EQ(First.size(), Schedule.size());
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].Commit, Schedule[I]);
    EXPECT_TRUE(First[I].Aborts.empty())
        << "a divergence-free replay is serial and cannot abort";
  }
  EXPECT_EQ(ReplayTts(), First)
      << "two replays must yield the one recorded TTS sequence";
}

TEST(ReplayTest, DivergentScheduleStillMakesProgress) {
  // A nonsense schedule (pairs that never run) must not deadlock: every
  // start is force-released after MaxGateRetries.
  std::vector<TxThreadPair> Bogus(50, packPair(99, 63));
  ReplayConfig Cfg;
  Cfg.MaxGateRetries = 3;
  Tl2Stm Stm;
  TVar<uint64_t> Counter{0};
  ReplayGate Gate(std::move(Bogus), Cfg);
  Stm.setGate(&Gate);
  Stm.setObserver(&Gate);

  Tl2Txn Txn(Stm, 0);
  for (unsigned I = 0; I < 20; ++I)
    Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
  EXPECT_EQ(Counter.loadDirect(), 20u);
  EXPECT_EQ(Gate.divergences(), 20u);
  EXPECT_EQ(Gate.cursor(), 0u) << "bogus schedule never advances";
}

namespace {

CommitEvent commitOf(TxId Tx, ThreadId Thread) {
  CommitEvent E{};
  E.Thread = Thread;
  E.Tx = Tx;
  return E;
}

} // namespace

TEST(ReplayTest, GateAdmitsTurnsInOrderAndRunsFreePastTheSchedule) {
  // Driven directly, without an STM: the pair at the cursor starts at
  // once, only its commit advances the cursor, and once the schedule is
  // used up every start runs free.
  ReplayConfig Cfg;
  Cfg.MaxGateRetries = 3;
  ReplayGate Gate({packPair(0, 0), packPair(1, 1)}, Cfg);

  Gate.onTxStart(/*Thread=*/0, /*Tx=*/0);
  Gate.onCommit(commitOf(1, 1)); // off-schedule commit
  EXPECT_EQ(Gate.cursor(), 0u) << "an off-schedule commit must not advance";
  Gate.onCommit(commitOf(0, 0));
  EXPECT_EQ(Gate.cursor(), 1u);
  Gate.onTxStart(/*Thread=*/1, /*Tx=*/1);
  Gate.onCommit(commitOf(1, 1));
  EXPECT_EQ(Gate.cursor(), 2u);

  Gate.onTxStart(/*Thread=*/5, /*Tx=*/5);
  Gate.onCommit(commitOf(5, 5));
  EXPECT_EQ(Gate.cursor(), 2u) << "the cursor stops at the schedule's end";
  EXPECT_EQ(Gate.divergences(), 0u);
}

TEST(ReplayTest, OffScheduleStartReleasedAfterMaxGateRetries) {
  // A start whose turn never comes is released once its re-check budget
  // is spent, one divergence per start, without moving the cursor.
  ReplayConfig Cfg;
  Cfg.MaxGateRetries = 16;
  ReplayGate Gate({packPair(0, 0)}, Cfg);

  Gate.onTxStart(/*Thread=*/1, /*Tx=*/1);
  EXPECT_EQ(Gate.divergences(), 1u);
  Gate.onTxStart(/*Thread=*/1, /*Tx=*/1);
  EXPECT_EQ(Gate.divergences(), 2u);
  EXPECT_EQ(Gate.cursor(), 0u);
}

TEST(ReplayTest, HeldStartAdmittedWhenItsTurnArrives) {
  // A thread whose pair is second in line waits at the gate until the
  // first pair commits, and is then admitted as on schedule, not released
  // by divergence.
  // A budget of 2^24 yields lasts seconds, far past the 5 ms the turn
  // takes to arrive, so only the commit can admit the waiter.
  ReplayConfig Cfg;
  Cfg.MaxGateRetries = 1u << 24;
  ReplayGate Gate({packPair(0, 0), packPair(1, 1)}, Cfg);

  std::atomic<bool> Admitted{false};
  std::thread Waiter([&] {
    Gate.onTxStart(/*Thread=*/1, /*Tx=*/1);
    Admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(Admitted.load()) << "admitted before its turn";
  Gate.onCommit(commitOf(0, 0));
  Waiter.join();

  EXPECT_TRUE(Admitted.load());
  EXPECT_EQ(Gate.divergences(), 0u);
  EXPECT_EQ(Gate.cursor(), 1u);
}
