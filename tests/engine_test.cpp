//===- tests/engine_test.cpp - Policy-templated engine family tests ------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and concurrency tests for the word-STM engine family
/// (src/engine): a typed suite run identically over every policy on the
/// chassis — TL2 on the flat table and on the sharded tier (4 shards),
/// and orec-eager — read-own-write, rollback on abort and on a foreign exception,
/// read-only commit flagging, invisible readers, atomic and
/// self-aliasing write sets, no lock residue after mixed aborts,
/// exactness under contention, and the
/// gate/observer/access-observer hook surface the whole family,
/// LibTm included, shares. The differential fuzz matrix
/// (tools/check_fuzz.cpp) is the deep conformance check; this file pins
/// the per-engine semantics a fuzz failure would be hard to localize
/// from.
///
//===----------------------------------------------------------------------===//

#include "engine/Engines.h"

#include "check/Checker.h"
#include "check/Fuzz.h"
#include "core/GuideController.h"
#include "shard/Sharded.h"
#include "stm/Perturb.h"
#include "stm/TVar.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace gstm {
namespace {

// ---------------------------------------------------------------------
// Typed per-engine suite
// ---------------------------------------------------------------------

/// Counting gate + observer + access observer, to assert the chassis
/// reports through every hook the family promises.
struct CountingHooks : StartGate, TxEventObserver, TxAccessObserver {
  std::atomic<uint64_t> Starts{0}, Commits{0}, Aborts{0};
  std::atomic<uint64_t> ReadOnlyCommits{0};
  std::atomic<uint64_t> Begins{0}, Loads{0}, BufferedLoads{0}, Stores{0},
      LockAcquires{0};

  void onTxStart(ThreadId, TxId) override { ++Starts; }
  void onCommit(const CommitEvent &E) override {
    ++Commits;
    if (E.ReadOnly)
      ++ReadOnlyCommits;
  }
  void onAbort(const AbortEvent &) override { ++Aborts; }
  void onTxBegin(ThreadId, TxId, uint64_t) override { ++Begins; }
  void onTxLoad(ThreadId, const void *, uint64_t, uint64_t,
                bool Buffered) override {
    ++Loads;
    if (Buffered)
      ++BufferedLoads;
  }
  void onTxStore(ThreadId, const void *, uint64_t) override {
    ++Stores;
  }
  void onLockAcquire(ThreadId, uint64_t) override { ++LockAcquires; }
};

/// Records the event stream of a single-threaded test, in order.
struct RecordingObserver : TxEventObserver {
  std::vector<CommitEvent> Commits;
  std::vector<AbortEvent> Aborts;
  void onCommit(const CommitEvent &E) override { Commits.push_back(E); }
  void onAbort(const AbortEvent &E) override { Aborts.push_back(E); }
};

/// Parameterized by the descriptor type; the runtime is its Stm (a flat
/// EngineStm, or ShardedStm at its default 4 shards).
template <typename TxnT> class EngineFamilyTest : public ::testing::Test {
public:
  using Stm = typename TxnT::Stm;
  using Txn = TxnT;
  using Config =
      std::remove_cvref_t<decltype(std::declval<Stm &>().config())>;

  static Config smallConfig() {
    Config Cfg;
    Cfg.TableBits = 8; // force aliasing so stripe sharing is exercised
    return Cfg;
  }

  /// A descriptor thread for which \p Var is local. The sharded tier
  /// samples rv from the thread's resident shard (Thread mod ShardCount),
  /// so once \p Var has committed on another home shard the next read
  /// costs one escalation abort; tests that count aborts exactly run
  /// their descriptor on the variable's home shard. Flat runtimes take
  /// any thread.
  static ThreadId residentThread(Stm &S, const TVar<uint64_t> &Var) {
    if constexpr (std::is_same_v<Stm, ShardedStm>)
      return static_cast<ThreadId>(S.shardFor(&Var.word()));
    else
      return 0;
  }
};

std::string residue(LockTable &Locks) {
  std::string Why;
  lockTableQuiescent(Locks, &Why);
  return Why;
}

using EngineTxns = ::testing::Types<Tl2Txn, ShardedTxn, OrecEagerTxn>;
TYPED_TEST_SUITE(EngineFamilyTest, EngineTxns);

TYPED_TEST(EngineFamilyTest, TableDefaultsApply) {
  using Stm = typename TestFixture::Stm;
  Stm S;
  Stm Small(TestFixture::smallConfig());
  if constexpr (std::is_same_v<Stm, ShardedStm>) {
    // 2^18 stripes per shard slice, 4 shards.
    EXPECT_EQ(S.lockTable().size(), size_t{4} << 18);
    EXPECT_EQ(Small.lockTable().size(), size_t{4} << 8);
  } else {
    EXPECT_EQ(S.lockTable().size(), size_t{1} << 16);
    EXPECT_EQ(Small.lockTable().size(), size_t{1} << 8);
  }
}

TYPED_TEST(EngineFamilyTest, SingleThreadIncrementsCommit) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  TVar<uint64_t> Counter(0);
  Txn T(S, TestFixture::residentThread(S, Counter));
  for (int I = 0; I < 64; ++I)
    T.run(/*Tx=*/1, [&](Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
  EXPECT_EQ(Counter.loadDirect(), 64u);
  EXPECT_EQ(S.stats().commits(), 64u);
  EXPECT_EQ(S.stats().aborts(), 0u);
}

TYPED_TEST(EngineFamilyTest, ReadOwnWriteSeesUncommittedValue) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  TVar<uint64_t> V(5);
  Txn T(S, 0);
  uint64_t SeenBefore = 0, SeenAfter = 0;
  T.run(1, [&](Txn &Tx) {
    SeenBefore = Tx.load(V);
    Tx.store(V, 42);
    SeenAfter = Tx.load(V);
  });
  EXPECT_EQ(SeenBefore, 5u);
  EXPECT_EQ(SeenAfter, 42u);
  EXPECT_EQ(V.loadDirect(), 42u);
}

TYPED_TEST(EngineFamilyTest, AbortRollsBackInPlaceWrites) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  TVar<uint64_t> A(10), B(20);
  Txn T(S, 0);
  int Attempt = 0;
  uint64_t ARestored = 0, BRestored = 0;
  T.run(1, [&](Txn &Tx) {
    // The retry must observe the pre-abort values: the first attempt's
    // in-place writes (including the double write to A) were undone.
    ARestored = Tx.load(A);
    BRestored = Tx.load(B);
    Tx.store(A, 11);
    Tx.store(B, 21);
    Tx.store(A, 12);
    if (Attempt++ == 0)
      Tx.retryAbort();
  });
  EXPECT_EQ(ARestored, 10u);
  EXPECT_EQ(BRestored, 20u);
  EXPECT_EQ(A.loadDirect(), 12u);
  EXPECT_EQ(B.loadDirect(), 21u);
  EXPECT_EQ(S.stats().aborts(), 1u);
  EXPECT_EQ(S.stats().commits(), 1u);
}

TYPED_TEST(EngineFamilyTest, ForeignExceptionRollsBackAndPropagates) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  TVar<uint64_t> V(5);
  Txn T(S, 0);
  // The body stores (in place on orec-eager, under a held lock) and
  // then throws something that is not the STM's own abort.
  EXPECT_THROW(T.run(1,
                     [&](Txn &Tx) {
                       Tx.store(V, Tx.load(V) + 1);
                       throw std::runtime_error("body failed");
                     }),
               std::runtime_error);
  EXPECT_EQ(V.loadDirect(), 5u);
  // A stranded lock would make the next descriptor retry forever.
  ASSERT_EQ(residue(S.lockTable()), "");
  // Nothing stranded: another descriptor commits on the same variable.
  Txn W(S, 1);
  W.run(2, [&](Txn &Tx) { Tx.store(V, Tx.load(V) + 2); });
  EXPECT_EQ(V.loadDirect(), 7u);
  EXPECT_EQ(S.stats().aborts(), 1u);
  EXPECT_EQ(S.stats().commits(), 1u);
}

TYPED_TEST(EngineFamilyTest, ReadOnlyCommitInstallsNoVersion) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  CountingHooks Hooks;
  S.setObserver(&Hooks);
  TVar<uint64_t> V(7);
  Txn T(S, 0);
  uint64_t ClockBefore = S.clock().sample();
  uint64_t Seen = 0;
  T.run(1, [&](Txn &Tx) { Seen = Tx.load(V); });
  EXPECT_EQ(Seen, 7u);
  EXPECT_EQ(Hooks.ReadOnlyCommits.load(), 1u);
  // A read-only commit must not advance the shared clock.
  EXPECT_EQ(S.clock().sample(), ClockBefore);
  // ...and must leave no lock residue: a writer from another thread can
  // immediately claim everything the reader touched.
  Txn W(S, 1);
  W.run(2, [&](Txn &Tx) { Tx.store(V, 8); });
  EXPECT_EQ(V.loadDirect(), 8u);
}

TYPED_TEST(EngineFamilyTest, HookSurfaceReportsEveryEvent) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  CountingHooks Hooks;
  S.setGate(&Hooks);
  S.setObserver(&Hooks);
  S.setAccessObserver(&Hooks);
  TVar<uint64_t> V(0);
  Txn T(S, 0);
  int Attempt = 0;
  T.run(1, [&](Txn &Tx) {
    Tx.store(V, Tx.load(V) + 1);
    uint64_t Again = Tx.load(V); // read-own-write: must report Buffered
    (void)Again;
    if (Attempt++ == 0)
      Tx.retryAbort();
  });
  EXPECT_EQ(Hooks.Starts.load(), 2u);
  EXPECT_EQ(Hooks.Begins.load(), 2u);
  EXPECT_EQ(Hooks.Commits.load(), 1u);
  EXPECT_EQ(Hooks.Aborts.load(), 1u);
  EXPECT_EQ(Hooks.Stores.load(), 2u);
  EXPECT_EQ(Hooks.Loads.load(), 4u);
  EXPECT_EQ(Hooks.BufferedLoads.load(), 2u);
  // TL2 locks only at commit: the committing attempt's lock. orec-eager
  // locks at encounter time, so the aborted attempt reports one too.
  if constexpr (std::is_same_v<typename TestFixture::Txn::State,
                               Tl2Policy::TxnState>)
    EXPECT_EQ(Hooks.LockAcquires.load(), 1u);
  else
    EXPECT_GE(Hooks.LockAcquires.load(), 2u);
}

TYPED_TEST(EngineFamilyTest, ThrowingCommitHookKeepsTheCommit) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  struct ThrowOnCommit : CountingHooks {
    void onCommit(const CommitEvent &E) override {
      CountingHooks::onCommit(E);
      throw std::runtime_error("observer failed");
    }
  } Hooks;
  S.setObserver(&Hooks);
  TVar<uint64_t> V(5);
  Txn T(S, 0);
  // The attempt is published before the observer runs: the exception
  // propagates, but the commit stands and no abort is reported.
  EXPECT_THROW(T.run(1, [&](Txn &Tx) { Tx.store(V, Tx.load(V) + 1); }),
               std::runtime_error);
  EXPECT_EQ(V.loadDirect(), 6u);
  EXPECT_EQ(residue(S.lockTable()), "");
  EXPECT_EQ(Hooks.Commits.load(), 1u);
  EXPECT_EQ(Hooks.Aborts.load(), 0u);
  EXPECT_EQ(S.stats().commits(), 1u);
  EXPECT_EQ(S.stats().aborts(), 0u);
}

// TxHooks: a setter given nullptr turns its hook off. A detached hook
// must see nothing of later transactions, while the stats still count.
TYPED_TEST(EngineFamilyTest, DetachedHooksSeeNothing) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  CountingHooks Hooks;
  S.setGate(&Hooks);
  S.setObserver(&Hooks);
  S.setAccessObserver(&Hooks);
  TVar<uint64_t> V(0);
  Txn T(S, TestFixture::residentThread(S, V));
  auto Increment = [&] {
    int Attempt = 0;
    T.run(1, [&](Txn &Tx) {
      Tx.store(V, Tx.load(V) + 1);
      if (Attempt++ == 0)
        Tx.retryAbort();
    });
  };
  Increment();
  const uint64_t Starts = Hooks.Starts.load(), Commits = Hooks.Commits.load(),
                 Aborts = Hooks.Aborts.load(), Begins = Hooks.Begins.load(),
                 Loads = Hooks.Loads.load(), Stores = Hooks.Stores.load(),
                 Locks = Hooks.LockAcquires.load();
  EXPECT_EQ(Starts, 2u);
  EXPECT_EQ(Commits, 1u);
  EXPECT_EQ(Aborts, 1u);
  EXPECT_EQ(Begins, 2u);

  S.setGate(nullptr);
  S.setObserver(nullptr);
  S.setAccessObserver(nullptr);
  Increment();
  EXPECT_EQ(Hooks.Starts.load(), Starts);
  EXPECT_EQ(Hooks.Commits.load(), Commits);
  EXPECT_EQ(Hooks.Aborts.load(), Aborts);
  EXPECT_EQ(Hooks.Begins.load(), Begins);
  EXPECT_EQ(Hooks.Loads.load(), Loads);
  EXPECT_EQ(Hooks.Stores.load(), Stores);
  EXPECT_EQ(Hooks.LockAcquires.load(), Locks);
  EXPECT_EQ(S.stats().commits(), 2u);
  EXPECT_EQ(S.stats().aborts(), 2u);
  EXPECT_EQ(V.loadDirect(), 2u);
}

TYPED_TEST(EngineFamilyTest, CommitCarriesItsPriorAborts) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  RecordingObserver Obs;
  S.setObserver(&Obs);
  TVar<uint64_t> V(0);
  const ThreadId Thread = TestFixture::residentThread(S, V);
  Txn T(S, Thread);
  int Attempt = 0;
  T.run(1, [&](Txn &Tx) {
    Tx.store(V, Tx.load(V) + 1);
    if (Attempt++ < 3)
      Tx.retryAbort();
  });
  // The count restarts with each transaction.
  T.run(2, [&](Txn &Tx) { Tx.store(V, Tx.load(V) + 1); });

  ASSERT_EQ(Obs.Aborts.size(), 3u);
  for (const AbortEvent &E : Obs.Aborts) {
    EXPECT_EQ(E.Thread, Thread);
    EXPECT_EQ(E.Tx, 1u);
    EXPECT_EQ(E.Kind, AbortCauseKind::Explicit);
    EXPECT_EQ(E.Site, AbortSite::Explicit);
  }
  ASSERT_EQ(Obs.Commits.size(), 2u);
  EXPECT_EQ(Obs.Commits[0].Tx, 1u);
  EXPECT_EQ(Obs.Commits[0].PriorAborts, 3u);
  EXPECT_EQ(Obs.Commits[1].Tx, 2u);
  EXPECT_EQ(Obs.Commits[1].PriorAborts, 0u);
  StatsSnapshot Snap = S.stats().aggregate();
  EXPECT_EQ(Snap.RetryHistogram[0], 1u);
  EXPECT_EQ(Snap.RetryHistogram[3], 1u);
  EXPECT_EQ(Snap.AbortsByCause[size_t(AbortCauseKind::Explicit)], 3u);
  EXPECT_EQ(V.loadDirect(), 2u);
}

// A commit that lands between a victim's begin and its read of the same
// variable aborts the victim at the read, and the commit ring names the
// committer and its version: the attribution the known/unknown-committer
// telemetry split counts.
TYPED_TEST(EngineFamilyTest, ReadTimeAbortNamesItsCommitter) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  RecordingObserver Obs;
  S.setObserver(&Obs);
  TVar<uint64_t> X(0);
  const ThreadId Victim = TestFixture::residentThread(S, X);
  const ThreadId Enemy = Victim + 1;
  Txn V(S, Victim);
  Txn E(S, Enemy);
  bool Injected = false;
  V.run(7, [&](Txn &Tx) {
    if (!Injected) {
      Injected = true;
      // stm-lint: allow(R5) deliberate commit injection from a second
      // descriptor; single-threaded, so the nesting cannot deadlock.
      E.run(9, [&](Txn &En) { En.store(X, 1); });
    }
    (void)Tx.load(X);
  });

  ASSERT_EQ(Obs.Commits.size(), 2u);
  const CommitEvent &EnemyCommit = Obs.Commits[0];
  EXPECT_EQ(EnemyCommit.Thread, Enemy);
  ASSERT_EQ(Obs.Aborts.size(), 1u);
  const AbortEvent &A = Obs.Aborts[0];
  EXPECT_EQ(A.Thread, Victim);
  EXPECT_EQ(A.Tx, 7u);
  EXPECT_EQ(A.Kind, AbortCauseKind::KnownCommitter);
  EXPECT_EQ(A.Cause, packPair(9, Enemy));
  EXPECT_EQ(A.CauseVersion, EnemyCommit.Version);
  EXPECT_EQ(A.Site, AbortSite::Read);
  EXPECT_EQ(Obs.Commits[1].PriorAborts, 1u);
  StatsSnapshot Snap = S.stats().snapshotShard(Victim);
  EXPECT_EQ(Snap.AbortsByCause[size_t(AbortCauseKind::KnownCommitter)], 1u);
  EXPECT_EQ(Snap.CommitRingLookups, 1u);
  EXPECT_EQ(Snap.CommitRingMisses, 0u);
}

TYPED_TEST(EngineFamilyTest, ConcurrentIncrementsAreExact) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 500;
  SchedulePerturber Yields(Threads, /*Seed=*/1); // densify interleavings
  S.setAccessObserver(&Yields);
  TVar<uint64_t> Shared(0);
  TVar<uint64_t> Cross[Threads];

  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Txn T(S, static_cast<ThreadId>(W));
      for (unsigned I = 0; I < PerThread; ++I)
        T.run(1, [&](Txn &Tx) {
          // Read a neighbor's counter first so read/write conflicts (not
          // just write/write) are part of the mix.
          uint64_t Neighbor = Tx.load(Cross[(W + 1) % Threads]);
          (void)Neighbor;
          Tx.store(Shared, Tx.load(Shared) + 1);
          Tx.store(Cross[W], Tx.load(Cross[W]) + 1);
        });
    });
  for (auto &T : Workers)
    T.join();

  EXPECT_EQ(Shared.loadDirect(), uint64_t{Threads} * PerThread);
  for (unsigned W = 0; W < Threads; ++W)
    EXPECT_EQ(Cross[W].loadDirect(), uint64_t{PerThread});
  EXPECT_EQ(S.stats().commits(), uint64_t{Threads} * PerThread);
}

TYPED_TEST(EngineFamilyTest, WriteWriteConflictsResolveByAbort) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  constexpr unsigned Threads = 3;
  constexpr unsigned PerThread = 400;
  SchedulePerturber Yields(Threads, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  // All threads update the same two variables in opposite orders — the
  // classic deadlock shape. Encounter-time (orec-eager) and commit-time
  // (TL2) acquisition never wait on a held orec, so it must resolve by
  // abort, never by hanging.
  TVar<uint64_t> X(0), Y(0);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Txn T(S, static_cast<ThreadId>(W));
      for (unsigned I = 0; I < PerThread; ++I)
        T.run(1, [&](Txn &Tx) {
          if (W % 2 == 0) {
            Tx.store(X, Tx.load(X) + 1);
            Tx.store(Y, Tx.load(Y) + 1);
          } else {
            Tx.store(Y, Tx.load(Y) + 1);
            Tx.store(X, Tx.load(X) + 1);
          }
        });
    });
  for (auto &T : Workers)
    T.join();
  EXPECT_EQ(X.loadDirect(), uint64_t{Threads} * PerThread);
  EXPECT_EQ(Y.loadDirect(), uint64_t{Threads} * PerThread);
}

TYPED_TEST(EngineFamilyTest, CommitsPublishMonotonicVersions) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  struct VersionLog : TxEventObserver {
    std::vector<uint64_t> Versions;
    void onCommit(const CommitEvent &E) override {
      if (!E.ReadOnly)
        Versions.push_back(E.Version);
    }
    void onAbort(const AbortEvent &) override {}
  } Log;
  S.setObserver(&Log);
  TVar<uint64_t> V(0);
  Txn T(S, 0);
  for (int I = 0; I < 16; ++I)
    T.run(1, [&](Txn &Tx) { Tx.store(V, Tx.load(V) + 1); });
  ASSERT_EQ(Log.Versions.size(), 16u);
  for (size_t I = 1; I < Log.Versions.size(); ++I)
    EXPECT_LT(Log.Versions[I - 1], Log.Versions[I]);
  EXPECT_GT(Log.Versions.front(), 0u);
}

TYPED_TEST(EngineFamilyTest, ReadOnlyTxnsNeverAbortWithoutWriters) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 200;
  SchedulePerturber Yields(Threads, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  constexpr unsigned Vars = 16;
  TVar<uint64_t> V[Vars];
  for (unsigned I = 0; I < Vars; ++I)
    V[I].storeDirect(I);
  uint64_t ClockBefore = S.clock().sample();

  // Every family member has invisible readers: overlapping read-only
  // transactions leave no trace in the orecs, so none can abort another.
  std::atomic<uint64_t> WrongSums{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Txn T(S, static_cast<ThreadId>(W));
      for (unsigned I = 0; I < PerThread; ++I) {
        uint64_t Sum = 0;
        T.run(1, [&](Txn &Tx) {
          Sum = 0;
          for (TVar<uint64_t> &X : V)
            Sum += Tx.load(X);
        });
        if (Sum != Vars * (Vars - 1) / 2)
          ++WrongSums;
      }
    });
  for (auto &T : Workers)
    T.join();

  EXPECT_EQ(WrongSums.load(), 0u);
  EXPECT_EQ(S.stats().aborts(), 0u);
  EXPECT_EQ(S.stats().commits(), uint64_t{Threads} * PerThread);
  EXPECT_EQ(S.clock().sample(), ClockBefore);
}

TYPED_TEST(EngineFamilyTest, LargeWriteSetCommitsAtomically) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  SchedulePerturber Yields(/*NumThreads=*/3, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  constexpr unsigned Vars = 64;
  constexpr uint64_t Rounds = 200;
  TVar<uint64_t> V[Vars];

  // One writer sets every variable to the round number in a single
  // transaction; committed readers must see all of one round or all of
  // another, never a mix.
  std::atomic<bool> WriterDone{false};
  std::atomic<uint64_t> TornReads{0}, Reads{0};
  std::vector<std::thread> Workers;
  Workers.emplace_back([&] {
    Txn T(S, 0);
    for (uint64_t R = 1; R <= Rounds; ++R)
      T.run(1, [&](Txn &Tx) {
        for (TVar<uint64_t> &X : V)
          Tx.store(X, R);
      });
    WriterDone = true;
  });
  for (unsigned Reader = 1; Reader <= 2; ++Reader)
    Workers.emplace_back([&, Reader] {
      Txn T(S, static_cast<ThreadId>(Reader));
      for (unsigned Done = 0; !WriterDone.load() || Done < 10; ++Done) {
        bool Mixed = false;
        T.run(2, [&](Txn &Tx) {
          uint64_t First = Tx.load(V[0]);
          Mixed = false;
          for (TVar<uint64_t> &X : V)
            Mixed |= Tx.load(X) != First;
        });
        if (Mixed)
          ++TornReads;
        ++Reads;
      }
    });
  for (auto &T : Workers)
    T.join();

  EXPECT_EQ(TornReads.load(), 0u) << "of " << Reads.load() << " reads";
  for (TVar<uint64_t> &X : V)
    EXPECT_EQ(X.loadDirect(), Rounds);
  EXPECT_EQ(residue(S.lockTable()), "");
}

TYPED_TEST(EngineFamilyTest, AliasedStripesCommitWithoutFalseAborts) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  // Four times more variables than stripes: one transaction meets its
  // own locks again and again, and must not treat them as a conflict.
  constexpr size_t Vars = 1024;
  auto V = std::make_unique<TVar<uint64_t>[]>(Vars);
  for (size_t I = 0; I < Vars; ++I)
    V[I].storeDirect(I);
  Txn T(S, 0);
  T.run(1, [&](Txn &Tx) {
    for (size_t I = 0; I < Vars; ++I)
      Tx.store(V[I], Tx.load(V[I]) + 1);
    for (size_t I = 0; I < Vars; ++I)
      Tx.store(V[I], Tx.load(V[I]) * 2);
  });
  EXPECT_EQ(S.stats().aborts(), 0u);
  EXPECT_EQ(S.stats().commits(), 1u);
  for (size_t I = 0; I < Vars; ++I)
    EXPECT_EQ(V[I].loadDirect(), (I + 1) * 2) << "variable " << I;
  EXPECT_EQ(residue(S.lockTable()), "");
}

TYPED_TEST(EngineFamilyTest, MixedAbortsLeaveNoLockResidue) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  constexpr unsigned Threads = 3;
  constexpr unsigned PerThread = 300;
  SchedulePerturber Yields(Threads, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  TVar<uint64_t> Shared(0);
  TVar<uint64_t> Own[Threads];

  // Conflict aborts, explicit retries and foreign exceptions interleave
  // across threads; whichever way an attempt ends, it must release every
  // orec it held. Every seventh transaction throws and is dropped, so the
  // committed count is fixed in advance.
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Txn T(S, static_cast<ThreadId>(W));
      for (unsigned I = 0; I < PerThread; ++I) {
        int Attempt = 0;
        try {
          T.run(1, [&](Txn &Tx) {
            Tx.store(Shared, Tx.load(Shared) + 1);
            Tx.store(Own[W], Tx.load(Own[W]) + 1);
            if (I % 5 == 0 && Attempt++ == 0)
              Tx.retryAbort();
            if (I % 7 == 0)
              throw std::runtime_error("dropped");
          });
        } catch (const std::runtime_error &) {
        }
      }
    });
  for (auto &T : Workers)
    T.join();

  uint64_t Kept = 0;
  for (unsigned I = 0; I < PerThread; ++I)
    Kept += I % 7 != 0;
  EXPECT_EQ(Shared.loadDirect(), Threads * Kept);
  for (unsigned W = 0; W < Threads; ++W)
    EXPECT_EQ(Own[W].loadDirect(), Kept);
  EXPECT_EQ(S.stats().commits(), Threads * Kept);
  // At least one explicit retry and one dropped attempt per marked index.
  EXPECT_GE(S.stats().aborts(), uint64_t{Threads} * (60 + 43));
  EXPECT_EQ(residue(S.lockTable()), "");
}

TYPED_TEST(EngineFamilyTest, ObserverAndStatsAgreeUnderContention) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  CountingHooks Hooks;
  S.setObserver(&Hooks);
  constexpr unsigned Threads = 3;
  constexpr unsigned PerThread = 300;
  SchedulePerturber Yields(Threads, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  TVar<uint64_t> Shared(0);

  // The chassis reports each attempt's outcome once, to the observer and
  // to the stats shards alike — the telemetry the model is trained on.
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Txn T(S, static_cast<ThreadId>(W));
      for (unsigned I = 0; I < PerThread; ++I)
        T.run(1, [&](Txn &Tx) { Tx.store(Shared, Tx.load(Shared) + 1); });
    });
  for (auto &T : Workers)
    T.join();

  EXPECT_EQ(Shared.loadDirect(), uint64_t{Threads} * PerThread);
  EXPECT_EQ(Hooks.Commits.load(), uint64_t{Threads} * PerThread);
  EXPECT_EQ(S.stats().commits(), Hooks.Commits.load());
  EXPECT_EQ(S.stats().aborts(), Hooks.Aborts.load());
  EXPECT_EQ(Hooks.ReadOnlyCommits.load(), 0u);
}

TYPED_TEST(EngineFamilyTest, IntermediateWritesStayInvisible) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S(TestFixture::smallConfig());
  // The writer runs as a thread below the sharded tier's 4 shards and
  // the readers as threads 4 and 5, so no two workers share a ThreadId
  // (and with it a perturber stream).
  SchedulePerturber Yields(/*NumThreads=*/6, /*Seed=*/1);
  S.setAccessObserver(&Yields);
  constexpr uint64_t Rounds = 300;
  TVar<uint64_t> V(0);

  // The writer passes V through an odd value inside every transaction
  // and retries every third one after the odd store. In-place engines
  // hold the orec across that window and undo it on abort; no committed
  // reader may ever see an odd value.
  std::atomic<bool> WriterDone{false};
  std::atomic<uint64_t> OddReads{0};
  std::vector<std::thread> Workers;
  Workers.emplace_back([&] {
    Txn T(S, TestFixture::residentThread(S, V));
    for (uint64_t R = 0; R < Rounds; ++R) {
      int Attempt = 0;
      T.run(1, [&](Txn &Tx) {
        uint64_t Old = Tx.load(V);
        Tx.store(V, Old + 1);
        if (R % 3 == 0 && Attempt++ == 0)
          Tx.retryAbort();
        Tx.store(V, Tx.load(V) + 1);
      });
    }
    WriterDone = true;
  });
  for (unsigned Reader = 1; Reader <= 2; ++Reader)
    Workers.emplace_back([&, Reader] {
      Txn T(S, static_cast<ThreadId>(3 + Reader));
      for (unsigned Done = 0; !WriterDone.load() || Done < 10; ++Done) {
        uint64_t Seen = 0;
        T.run(2, [&](Txn &Tx) { Seen = Tx.load(V); });
        if (Seen % 2 != 0)
          ++OddReads;
      }
    });
  for (auto &T : Workers)
    T.join();

  EXPECT_EQ(OddReads.load(), 0u);
  EXPECT_EQ(V.loadDirect(), 2 * Rounds);
  EXPECT_EQ(residue(S.lockTable()), "");
}

// ---------------------------------------------------------------------
// GuideController wiring (family-wide gate/observer contract)
// ---------------------------------------------------------------------

TEST(EngineGuideTest, GuideControllerPlugsIntoEngineStm) {
  // An empty model resolves every tuple to Unknown, so the gate passes
  // everything — this pins the wiring (EngineStm accepts the controller
  // as both gate and observer and feeds it commits), not the policy.
  Tsa Model;
  GuidedPolicy Policy(Model, 4.0);
  GuideConfig Cfg;
  GuideController Controller(Policy, Cfg);

  OrecEagerStm S;
  S.setGate(&Controller);
  S.setObserver(&Controller);
  TVar<uint64_t> C(0);
  OrecEagerTxn T(S, 0);
  for (int I = 0; I < 8; ++I)
    T.run(1, [&](OrecEagerTxn &Tx) { Tx.store(C, Tx.load(C) + 1); });
  EXPECT_EQ(C.loadDirect(), 8u);
  EXPECT_GE(Controller.stats().GateChecks, 8u);
}

// ---------------------------------------------------------------------
// Engine mutation self-tests: each per-engine fault knob disables one
// safety mechanism, and the *history checkers* (not merely the analytic
// final-state sum) must flag the resulting executions within a bounded
// seed range. The clean control below proves the same seeds pass with
// the faults off, so detection is attributable to the injected bug.
// ---------------------------------------------------------------------

TEST(EngineMutationSelfTest, CleanEnginesPassTheSameSeeds) {
  FuzzConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    FuzzRunResult R = runFuzzIteration(Seed, FuzzBackend::OrecEager, Cfg);
    EXPECT_TRUE(R.passed()) << "orec-eager seed " << Seed << ": " << R.Error;
  }
}

TEST(EngineMutationSelfTest, SkippedUndoReplayIsCaughtOnOrecEager) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipUndoReplay = true;
  EXPECT_GE(checkerViolations(FuzzBackend::OrecEager, Cfg), 3u)
      << "checker failed to flag the skipped-undo-replay mutant";
}

TEST(EngineMutationSelfTest, SkippedReadValidationIsCaughtOnOrecEager) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::OrecEager, Cfg, 120), 3u)
      << "checker failed to flag the skipped-validation mutant";
}

// The full differential harness across every backend — flat TL2,
// orec-eager, the sharded tier, LibTm and the serial reference — must agree
// on a handful of seeds (the 1024-seed sweep is check_fuzz --smoke).
TEST(EngineMutationSelfTest, DifferentialMatrixAgreesOnSampleSeeds) {
  FuzzConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    DifferentialResult D = runDifferential(Seed, Cfg);
    EXPECT_TRUE(D.passed()) << "seed " << Seed << ": " << D.Error;
    EXPECT_EQ(D.PerBackend.size(), std::size(AllFuzzBackends));
  }
}

} // namespace
} // namespace gstm
