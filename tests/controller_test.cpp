//===- tests/controller_test.cpp - guided-execution controller tests -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/GuideController.h"

#include "core/Runner.h"
#include "stamp/Kmeans.h"
#include "stamp/Vacation.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

using namespace gstm;

namespace {

StateTuple makeTuple(TxId CommitTx, ThreadId CommitThread,
                     std::initializer_list<std::pair<TxId, ThreadId>>
                         Aborts = {}) {
  StateTuple S;
  S.Commit = packPair(CommitTx, CommitThread);
  for (auto [Tx, T] : Aborts)
    S.Aborts.push_back(packPair(Tx, T));
  S.canonicalize();
  return S;
}

/// Model with A -> B dominant and A -> D rare; B's tuple contains pair
/// (1,1) and (2,3); D's contains (3,4).
Tsa biasedModel() {
  Tsa Model;
  StateTuple A = makeTuple(0, 0);
  StateTuple B = makeTuple(1, 1, {{2, 3}});
  StateTuple D = makeTuple(3, 4);
  std::vector<StateTuple> Run;
  for (int I = 0; I < 9; ++I) {
    Run.push_back(A);
    Run.push_back(B);
  }
  Run.push_back(A);
  Run.push_back(D);
  Model.addRun(Run);
  return Model;
}

/// Policy over a two-state model where only pair <0,0> is ever allowed
/// from state 0 — lets a test force holds deterministically.
GuidedPolicy restrictivePolicy() {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(0, 0, {{1, 1}});
  // A -> A dominates; B is a rare destination pruned by Tfactor 1.
  Model.addRun({A, A, A, A, A, A, A, A, B, A});
  return GuidedPolicy(std::move(Model), 1.0);
}

CommitEvent commitEventFor(ThreadId Thread, TxId Tx) {
  CommitEvent E{};
  E.Thread = Thread;
  E.Tx = Tx;
  return E;
}

} // namespace

TEST(GuideControllerTest, StartsUnknownAndTracksCommits) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  GuideController Controller(Policy, Cfg);

  EXPECT_EQ(Controller.currentState(), UnknownState);

  // Commit of (tx 0, thread 0) with no pending aborts forms tuple A.
  Controller.onCommit(CommitEvent{0, 0, 1, 0});
  EXPECT_EQ(Controller.currentState(), Policy.resolve(makeTuple(0, 0)));
  EXPECT_EQ(Controller.stats().KnownStates, 1u);
}

TEST(GuideControllerTest, PendingAbortsFoldIntoNextCommit) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideController Controller(Policy, GuideConfig{});

  Controller.onAbort(AbortEvent{3, 2, AbortCauseKind::UnknownCommitter, 0, 0});
  Controller.onCommit(CommitEvent{1, 1, 2, 0});
  // Tuple {<c3>, <b1>} is state B in the model.
  EXPECT_EQ(Controller.currentState(),
            Policy.resolve(makeTuple(1, 1, {{2, 3}})));
}

TEST(GuideControllerTest, UnknownTupleResetsToUnknown) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideController Controller(Policy, GuideConfig{});

  Controller.onCommit(CommitEvent{9, 9, 1, 0});
  EXPECT_EQ(Controller.currentState(), UnknownState);
  EXPECT_EQ(Controller.stats().UnknownStates, 1u);
}

TEST(GuideControllerTest, AllowedPairPassesImmediately) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideController Controller(Policy, GuideConfig{});
  Controller.onCommit(CommitEvent{0, 0, 1, 0}); // current = A

  Timer T;
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1); // pair (1,1) is in B
  EXPECT_LT(T.elapsedSeconds(), 0.05);
  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 0u);
  EXPECT_EQ(S.GateChecks, 1u);
}

TEST(GuideControllerTest, DisallowedPairHeldUntilForcedRelease) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 5;
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(CommitEvent{0, 0, 1, 0}); // current = A
  // A live partner that is not held, so a commit could still come.
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);

  // Pair (3,4) only appears in the rare destination D: must be held and
  // eventually force-released (the k-retry progress guarantee).
  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.ForcedReleases, 1u);
  EXPECT_EQ(S.AllHeldReleases, 0u);
}

TEST(GuideControllerTest, ForcedReleaseComesAfterExactlyKRetries) {
  // The paper's k-retry rule, counted precisely: a thread whose pair
  // never appears in any high-probability destination of the current
  // state must re-check the gate exactly MaxGateRetries times — no
  // fewer (it may not give up early) and no more (it may not spin
  // beyond k) — before being force-released.
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 7;
  Cfg.GateSleepMicros = 0; // yield-only: retry count is what matters
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(CommitEvent{0, 0, 1, 0}); // current = A
  // A live partner that is not held, so the all-held release never fires.
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);

  // Pair (3,4) is only in rare destination D, which the bias threshold
  // prunes; with no concurrent commits the state never changes, so the
  // hold can only end through the retry bound.
  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.GateRetries, 7u) << "exactly k re-checks, then release";
  EXPECT_EQ(S.ForcedReleases, 1u);
  EXPECT_EQ(S.AllHeldReleases, 0u);

  // A second gated start doubles the retry count: the counter is
  // cumulative across holds, not a per-hold high-water mark.
  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  EXPECT_EQ(Controller.stats().GateRetries, 14u);
  EXPECT_EQ(Controller.stats().ForcedReleases, 2u);
  EXPECT_EQ(Controller.stats().AllHeldReleases, 0u);
}

TEST(GuideControllerTest, HeldThreadReleasedByStateChange) {
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 10000; // long enough that release must come from
                              // the state change, not the k bound
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(CommitEvent{0, 0, 1, 0}); // current = A
  // A live partner that is not held; the commit below plays its commit.
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);

  std::thread Held(
      [&] { Controller.onTxStart(/*Thread=*/4, /*Tx=*/3); });
  // Move the system to an unknown state, which admits everyone.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Controller.onCommit(CommitEvent{9, 9, 2, 0});
  Held.join();

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.ForcedReleases, 0u)
      << "release must come from the state change";
  EXPECT_EQ(S.AllHeldReleases, 0u)
      << "release must come from the state change";
}

TEST(GuideControllerTest, ForwardsEventsDownstream) {
  struct Probe : TxEventObserver {
    int Commits = 0, Aborts = 0;
    void onCommit(const CommitEvent &) override { ++Commits; }
    void onAbort(const AbortEvent &) override { ++Aborts; }
  } Downstream;

  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideController Controller(Policy, GuideConfig{}, &Downstream);
  Controller.onAbort(AbortEvent{1, 1, AbortCauseKind::Explicit, 0, 0});
  Controller.onCommit(CommitEvent{0, 0, 1, 0});
  EXPECT_EQ(Downstream.Commits, 1);
  EXPECT_EQ(Downstream.Aborts, 1);
}

TEST(GuideControllerLifecycleTest, SinkReceivesTuplesInFormationOrder) {
  struct RecordingSink : TtsSink {
    std::vector<uint64_t> Seqs;
    void observeTuple(ThreadId, uint64_t Seq, const StateTuple &) override {
      Seqs.push_back(Seq);
    }
  } Sink;
  auto Policy = restrictivePolicy();
  GuideConfig GC;
  GuideController Controller(Policy, GC);
  Controller.setTtsSink(&Sink);
  for (int I = 0; I < 5; ++I)
    Controller.onCommit(commitEventFor(0, 0));
  ASSERT_EQ(Sink.Seqs.size(), 5u);
  for (uint64_t I = 0; I < 5; ++I)
    EXPECT_EQ(Sink.Seqs[I], I) << "dense formation sequence expected";

  Controller.setTtsSink(nullptr);
  Controller.onCommit(commitEventFor(0, 0));
  EXPECT_EQ(Sink.Seqs.size(), 5u) << "detached sink must see nothing";
}

TEST(GuideControllerTest, RunnerSinkSeesEveryGuidedCommit) {
  // RunnerConfig::Learner wiring on a real 4-thread guided run: every
  // commit's tuple reaches the sink once, and the formation sequence is
  // dense even though the tuples arrive from four committing threads.
  struct CountingSink : TtsSink {
    std::mutex M;
    std::vector<uint64_t> Seqs;
    void observeTuple(ThreadId, uint64_t Seq, const StateTuple &) override {
      std::lock_guard<std::mutex> Lock(M);
      Seqs.push_back(Seq);
    }
  } Sink;

  KmeansWorkload W(KmeansParams::forSize(SizeClass::Small));
  Tsa Model;
  RunnerConfig RC;
  RC.Threads = 4;
  for (unsigned Run = 0; Run < 2; ++Run)
    Model.addRun(runWorkloadOnce(W, RC, 42 + Run, nullptr).Tuples);
  ASSERT_GT(Model.numStates(), 0u);
  GuidedPolicy Policy(std::move(Model), 4.0);

  RC.Learner = &Sink;
  RunResult R = runWorkloadOnce(W, RC, 99, &Policy);
  ASSERT_TRUE(R.Verified);
  ASSERT_GT(R.Commits, 0u);
  ASSERT_EQ(Sink.Seqs.size(), R.Commits)
      << "every commit's tuple must reach the sink";
  std::sort(Sink.Seqs.begin(), Sink.Seqs.end());
  for (uint64_t I = 0; I < Sink.Seqs.size(); ++I)
    ASSERT_EQ(Sink.Seqs[I], I) << "formation sequence must be dense";
}

TEST(GuideControllerTest, UnknownStateAdmitsEveryPair) {
  // The paper's rule for states the training runs never captured: while
  // the current state is unknown (before the first commit and after an
  // unmodeled tuple) every start proceeds unimpeded.
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 3;
  Cfg.GateSleepMicros = 0;
  GuideController Controller(Policy, Cfg);

  ASSERT_EQ(Controller.currentState(), UnknownState);
  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  Controller.onCommit(commitEventFor(9, 9)); // unmodeled tuple
  ASSERT_EQ(Controller.currentState(), UnknownState);
  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);
  Controller.onTxStart(/*Thread=*/63, /*Tx=*/500);

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.GateChecks, 4u);
  EXPECT_EQ(S.Holds, 0u);
  EXPECT_EQ(S.GateRetries, 0u);
  EXPECT_EQ(S.ForcedReleases, 0u);
}

TEST(GuideControllerTest, GateHoldsEveryDisallowedStartForTheWholeRun) {
  // The offline-trained policy is fixed for the run: however many holds
  // end in forced releases, the gate keeps holding every start the model
  // does not admit and keeps admitting every start it does. Thread 0's
  // admitted start comes first, so thread 1 is never the only live
  // worker and each hold runs to the retry bound.
  GuidedPolicy Policy = restrictivePolicy();
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 4;
  Cfg.GateSleepMicros = 0;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(commitEventFor(0, 0)); // current = A
  const StateId A = Controller.currentState();
  ASSERT_NE(A, UnknownState);

  constexpr uint64_t Rounds = 20;
  for (uint64_t I = 0; I < Rounds; ++I) {
    Controller.onTxStart(/*Thread=*/0, /*Tx=*/0); // admitted at once
    Controller.onTxStart(/*Thread=*/1, /*Tx=*/1); // held, then forced
    Controller.onCommit(commitEventFor(0, 0));
    ASSERT_EQ(Controller.currentState(), A);
  }

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.GateChecks, 2 * Rounds);
  EXPECT_EQ(S.Holds, Rounds);
  EXPECT_EQ(S.ForcedReleases, Rounds);
  EXPECT_EQ(S.AllHeldReleases, 0u);
  EXPECT_EQ(S.GateRetries, Rounds * Cfg.MaxGateRetries);
  EXPECT_EQ(S.KnownStates, Rounds + 1);
  EXPECT_EQ(S.UnknownStates, 0u);
}

TEST(GuideControllerTest, AdmittedHoldCountsOnlyTheRetriesItWaited) {
  // A hold that a state change ends contributes the retries it actually
  // waited, fewer than k, and no forced release.
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 100000;
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(commitEventFor(0, 0)); // current = A
  // A live partner that is not held; the commit below plays its commit.
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);

  std::thread Held([&] { Controller.onTxStart(/*Thread=*/4, /*Tx=*/3); });
  // Wait until the thread is provably parked at the gate.
  while (Controller.stats().GateRetries == 0)
    std::this_thread::yield();
  Controller.onCommit(commitEventFor(9, 9)); // unknown: admits everyone
  Held.join();

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.GateChecks, 2u) << "the partner's admitted start and the hold";
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.ForcedReleases, 0u);
  EXPECT_EQ(S.AllHeldReleases, 0u);
  EXPECT_GE(S.GateRetries, 1u);
  EXPECT_LT(S.GateRetries, uint64_t{Cfg.MaxGateRetries});
}

TEST(GuideControllerTest, AllLiveWorkersHeldReleasesLatestArrivalAtOnce) {
  // Both live workers held in a state that admits neither: no commit can
  // move the state, so the later arrival is released at once. The other
  // keeps waiting, since the released worker may now commit.
  GuidedPolicy Policy = restrictivePolicy();
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 100000;
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  // Both workers go live on a start the unknown state admits.
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1);
  Controller.onTxStart(/*Thread=*/2, /*Tx=*/1);
  Controller.onCommit(commitEventFor(0, 0)); // current = A: admits <0,0>

  std::atomic<int> Released{0};
  auto Start = [&](ThreadId Thread) {
    Controller.onTxStart(Thread, /*Tx=*/1);
    Released.fetch_add(1);
  };
  std::thread First(Start, 1), Second(Start, 2);
  while (Released.load() == 0)
    std::this_thread::yield();
  // Leave the other worker room to (wrongly) leave the gate too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Released.load(), 1) << "the earlier arrival must keep waiting";
  EXPECT_EQ(Controller.stats().AllHeldReleases, 1u);

  Controller.onCommit(commitEventFor(9, 9)); // unknown: admits everyone
  First.join();
  Second.join();

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.GateChecks, 4u);
  EXPECT_EQ(S.Holds, 2u);
  EXPECT_EQ(S.AllHeldReleases, 1u);
  EXPECT_EQ(S.ForcedReleases, 0u) << "the other release is the state change";
}

TEST(GuideControllerTest, ExitedWorkerNoLongerCountsAsLive) {
  // Once the only other live worker has exited, nothing can commit: the
  // held start is released at its next check, long before k retries.
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 100000;
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(commitEventFor(0, 0)); // current = A
  Controller.onTxStart(/*Thread=*/1, /*Tx=*/1); // admitted partner

  std::thread Held([&] { Controller.onTxStart(/*Thread=*/4, /*Tx=*/3); });
  // Wait until the thread is provably parked at the gate.
  while (Controller.stats().GateRetries == 0)
    std::this_thread::yield();
  Controller.onThreadExit(/*Thread=*/1);
  Held.join();

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.AllHeldReleases, 1u);
  EXPECT_EQ(S.ForcedReleases, 0u);
  EXPECT_LT(S.GateRetries, uint64_t{Cfg.MaxGateRetries});
}

TEST(GuideControllerTest, SoleLiveWorkerIsReleasedAtItsFirstCheck) {
  // A held worker with no live peer is every live worker: it is released
  // before it ever sleeps.
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  Cfg.MaxGateRetries = 8;
  Cfg.GateSleepMicros = 100;
  GuideController Controller(Policy, Cfg);
  Controller.onCommit(commitEventFor(0, 0)); // current = A

  Controller.onTxStart(/*Thread=*/4, /*Tx=*/3);
  GuideStats S = Controller.stats();
  EXPECT_EQ(S.Holds, 1u);
  EXPECT_EQ(S.AllHeldReleases, 1u);
  EXPECT_EQ(S.GateRetries, 0u) << "released without a single sleep";
  EXPECT_EQ(S.ForcedReleases, 0u);
}

TEST(GuideControllerTest, GuidedVacationReleasesHoldsOnceAllWorkersHeld) {
  // The runner takes a worker out of the live set when its body returns,
  // so a 2-thread guided vacation run releases some holds by the
  // all-held rule (at the latest when one worker has finished) and still
  // verifies.
  VacationWorkload W(VacationParams::forSize(SizeClass::Small));
  Tsa Model;
  RunnerConfig RC;
  RC.Threads = 2;
  for (unsigned Run = 0; Run < 3; ++Run)
    Model.addRun(runWorkloadOnce(W, RC, 7 + Run, nullptr).Tuples);
  GuidedPolicy Policy(std::move(Model), 4.0);

  RunResult R = runWorkloadOnce(W, RC, 42, &Policy);
  EXPECT_TRUE(R.Verified);
  EXPECT_GT(R.Guide.Holds, 0u);
  EXPECT_GT(R.Guide.AllHeldReleases, 0u);
  EXPECT_LE(R.Guide.AllHeldReleases + R.Guide.ForcedReleases, R.Guide.Holds);
}

TEST(GuideControllerTest, ConcurrentAbortsFoldIntoExactlyOneTuple) {
  // Four threads abort and commit concurrently. Every logged abort must
  // land in exactly one formed tuple (none lost, none counted twice) and
  // the tuples' formation sequence must be dense.
  constexpr unsigned Threads = 4, PerThread = 200;
  struct CollectingSink : TtsSink {
    std::mutex M;
    std::vector<uint64_t> Seqs;
    std::vector<TxThreadPair> Aborts;
    void observeTuple(ThreadId, uint64_t Seq,
                      const StateTuple &Tuple) override {
      std::lock_guard<std::mutex> Lock(M);
      Seqs.push_back(Seq);
      Aborts.insert(Aborts.end(), Tuple.Aborts.begin(), Tuple.Aborts.end());
    }
  } Sink;

  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  GuideController Controller(Policy, GuideConfig{});
  Controller.setTtsSink(&Sink);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      auto Thread = static_cast<ThreadId>(T);
      for (unsigned I = 0; I < PerThread; ++I) {
        // Distinct (tx, thread) per abort so canonicalization's dedupe
        // cannot hide a double count.
        Controller.onAbort(AbortEvent{Thread, static_cast<TxId>(I + 1),
                                      AbortCauseKind::Explicit, 0, 0});
        Controller.onCommit(commitEventFor(Thread, 0));
      }
    });
  for (auto &W : Workers)
    W.join();

  constexpr uint64_t Total = uint64_t{Threads} * PerThread;
  ASSERT_EQ(Sink.Seqs.size(), Total);
  std::sort(Sink.Seqs.begin(), Sink.Seqs.end());
  for (uint64_t I = 0; I < Total; ++I)
    ASSERT_EQ(Sink.Seqs[I], I) << "formation sequence must be dense";

  std::vector<TxThreadPair> Expected;
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned I = 0; I < PerThread; ++I)
      Expected.push_back(
          packPair(static_cast<TxId>(I + 1), static_cast<ThreadId>(T)));
  std::sort(Expected.begin(), Expected.end());
  std::sort(Sink.Aborts.begin(), Sink.Aborts.end());
  EXPECT_EQ(Sink.Aborts, Expected)
      << "each abort must be folded into exactly one tuple";

  GuideStats S = Controller.stats();
  EXPECT_EQ(S.KnownStates + S.UnknownStates, Total);
}

TEST(GuideControllerTest, CurrentStateIsTheNewestTuplesState) {
  // Committers race to publish their tuples' states. Once they have
  // joined, the current state must be the newest tuple's, never that of
  // an older tuple whose committer published late. Many short rounds:
  // only the last publishes of a round can show the race.
  constexpr unsigned Rounds = 2000, Threads = 4, PerThread = 16;
  struct NewestSink : TtsSink {
    std::mutex M;
    uint64_t Seq = 0;
    StateTuple Tuple;
    void observeTuple(ThreadId, uint64_t S, const StateTuple &T) override {
      std::lock_guard<std::mutex> Lock(M);
      if (S >= Seq) {
        Seq = S;
        Tuple = T;
      }
    }
  };
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    NewestSink Sink;
    GuideController Controller(Policy, GuideConfig{});
    Controller.setTtsSink(&Sink);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        // Tuples <0,0> and <3,4> resolve to distinct modeled states, the
        // rest to UnknownState, so which tuple is newest shows in the
        // state.
        for (unsigned I = 0; I < PerThread; ++I)
          Controller.onCommit((I + T) % 3 == 0 ? commitEventFor(0, 0)
                              : (I + T) % 3 == 1 ? commitEventFor(4, 3)
                                                 : commitEventFor(T, 1));
      });
    for (auto &W : Workers)
      W.join();
    ASSERT_EQ(Sink.Seq, uint64_t{Threads} * PerThread - 1);
    ASSERT_EQ(Controller.currentState(), Policy.resolve(Sink.Tuple))
        << "round " << Round;
  }
}

TEST(GuideControllerTest, OnlineTuplesEqualOfflineSequenceGrouping) {
  // The controller forms its tuples the way groupTuples' Sequence mode
  // parses the trace of the same stream: each commit absorbs the aborts
  // logged since the previous commit.
  struct RecordingSink : TtsSink {
    std::vector<StateTuple> Tuples;
    void observeTuple(ThreadId, uint64_t, const StateTuple &Tuple) override {
      Tuples.push_back(Tuple);
    }
  } Sink;
  Tsa Model = biasedModel();
  GuidedPolicy Policy(Model, 4.0);
  TraceCollector Collector(/*NumThreads=*/3);
  GuideController Controller(Policy, GuideConfig{}, &Collector);
  Controller.setTtsSink(&Sink);

  // Round R: thread A commits version 2R+1 and thread B aborts on that
  // commit, but thread C commits next, after an abort of its own with no
  // recorded committer on odd rounds.
  for (uint64_t R = 0; R < 40; ++R) {
    auto A = static_cast<ThreadId>(R % 3);
    auto B = static_cast<ThreadId>((R + 1) % 3);
    auto C = static_cast<ThreadId>((R + 2) % 3);
    auto TxA = static_cast<TxId>(R % 4);
    Controller.onCommit(CommitEvent{A, TxA, 2 * R + 1, 0});
    Controller.onAbort(AbortEvent{B, static_cast<TxId>((R + 1) % 4),
                                  AbortCauseKind::KnownCommitter,
                                  packPair(TxA, A), 2 * R + 1});
    if (R % 2 == 1)
      Controller.onAbort(AbortEvent{C, 0, AbortCauseKind::Explicit, 0, 0});
    Controller.onCommit(CommitEvent{C, 0, 2 * R + 2, 0});
  }

  std::vector<TraceEvent> Trace = Collector.takeTrace();
  ASSERT_EQ(Trace.size(), 40u * 3 + 20);
  ASSERT_EQ(Sink.Tuples.size(), 80u);
  EXPECT_EQ(Sink.Tuples, groupTuples(Trace, Grouping::Sequence));
}
