//===- tests/engine_test.cpp - Policy-templated engine family tests ------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and concurrency tests for the word-STM engine family
/// (src/engine): the ByteLock table primitive, then a typed suite run
/// identically over every policy on the chassis — TL2 on the flat table
/// and on the sharded tier (4 shards), orec-eager, TLRW and 2PL-undo —
/// read-own-write, rollback on abort and on a foreign exception,
/// read-only commit flagging, exactness under contention, and the
/// gate/observer/contention-manager hook surface the whole family,
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
#include "stm/Contention.h"
#include "stm/TVar.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace gstm {
namespace {

// ---------------------------------------------------------------------
// ByteLock / ByteLockTable
// ---------------------------------------------------------------------

TEST(ByteLockTest, LayoutIsOneCacheLinePair) {
  static_assert(sizeof(ByteLock) == 128);
  ByteLock L;
  EXPECT_FALSE(L.heldByAnyone());
  L.Readers[7].store(1, std::memory_order_relaxed);
  EXPECT_TRUE(L.heldByAnyone());
  L.Readers[7].store(0, std::memory_order_relaxed);
  L.Owner.store(LockTable::encodeLocked(packPair(1, 0)),
                std::memory_order_relaxed);
  EXPECT_TRUE(L.heldByAnyone());
}

TEST(ByteLockTest, TableMapsAddressesDeterministically) {
  ByteLockTable Table(/*Bits=*/8);
  EXPECT_EQ(Table.size(), size_t{1} << 8);
  std::atomic<uint64_t> Word{0};
  ByteLock &A = Table.lockFor(&Word);
  ByteLock &B = Table.lockFor(&Word);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(&Table.lockAt(Table.indexFor(&Word)), &A);
}

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

struct CountingCm : ContentionManager {
  std::atomic<uint64_t> Begins{0}, Commits{0}, Aborts{0};
  std::string name() const override { return "counting"; }
  void onTxBegin(ThreadId) override { ++Begins; }
  uint64_t onAbort(ThreadId, TxThreadPair, bool, uint32_t,
                   uint64_t) override {
    ++Aborts;
    return 0;
  }
  void onCommit(ThreadId, uint64_t) override { ++Commits; }
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
std::string residue(ByteLockTable &Locks) {
  std::string Why;
  byteLockTableQuiescent(Locks, &Why);
  return Why;
}

using EngineTxns = ::testing::Types<Tl2Txn, ShardedTxn, OrecEagerTxn,
                                    TlrwTxn, TwoPlTxn>;
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
    // 2^20 stripes; 2^16 byte locks, each 16x a stripe word.
    const unsigned Bits = std::is_same_v<Stm, TlrwStm> ? 16 : 20;
    EXPECT_EQ(S.lockTable().size(), size_t{1} << Bits);
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
  // The body stores (in place on the undo-log engines, under a held
  // lock) and then throws something that is not the STM's own abort.
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
  // TL2 locks only at commit: the committing attempt's lock. The in-place
  // engines lock at encounter time, so the aborted attempt reports one too.
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

TYPED_TEST(EngineFamilyTest, ContentionManagerHooksFire) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  Stm S;
  CountingCm Cm;
  S.setContentionManager(&Cm);
  TVar<uint64_t> V(0);
  Txn T(S, TestFixture::residentThread(S, V));
  int Attempt = 0;
  for (int I = 0; I < 4; ++I)
    T.run(1, [&](Txn &Tx) {
      Tx.store(V, Tx.load(V) + 1);
      if (Attempt++ == 0)
        Tx.retryAbort();
    });
  EXPECT_EQ(Cm.Begins.load(), 4u);
  EXPECT_EQ(Cm.Commits.load(), 4u);
  EXPECT_EQ(Cm.Aborts.load(), 1u);
  EXPECT_EQ(V.loadDirect(), 4u);
}

TYPED_TEST(EngineFamilyTest, ConcurrentIncrementsAreExact) {
  using Stm = typename TestFixture::Stm;
  using Txn = typename TestFixture::Txn;
  auto Cfg = TestFixture::smallConfig();
  Cfg.PreemptShift = 2; // densify interleavings
  Stm S(Cfg);
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 500;
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
  auto Cfg = TestFixture::smallConfig();
  Cfg.PreemptShift = 2;
  Stm S(Cfg);
  constexpr unsigned Threads = 3;
  constexpr unsigned PerThread = 400;
  // All threads update the same two variables in opposite orders — the
  // classic deadlock shape. No-wait (2pl) and bounded-drain (tlrw)
  // acquisition must resolve it by abort, never by hanging.
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
  for (FuzzBackend B :
       {FuzzBackend::OrecEager, FuzzBackend::Tlrw, FuzzBackend::TwoPlUndo})
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      FuzzRunResult R = runFuzzIteration(Seed, B, Cfg);
      EXPECT_TRUE(R.passed()) << fuzzBackendName(B) << " seed " << Seed
                              << ": " << R.Error;
    }
}

TEST(EngineMutationSelfTest, SkippedUndoReplayIsCaughtOnOrecEager) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipUndoReplay = true;
  EXPECT_GE(checkerViolations(FuzzBackend::OrecEager, Cfg), 3u)
      << "checker failed to flag the skipped-undo-replay mutant";
}

TEST(EngineMutationSelfTest, SkippedUndoReplayIsCaughtOnTwoPl) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipUndoReplay = true;
  EXPECT_GE(checkerViolations(FuzzBackend::TwoPlUndo, Cfg), 3u)
      << "checker failed to flag the skipped-undo-replay mutant";
}

TEST(EngineMutationSelfTest, SkippedReadValidationIsCaughtOnOrecEager) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::OrecEager, Cfg, 120), 3u)
      << "checker failed to flag the skipped-validation mutant";
}

TEST(EngineMutationSelfTest, SkippedReaderDrainIsCaughtOnTlrw) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReaderDrain = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Tlrw, Cfg, 120), 3u)
      << "checker failed to flag the skipped-reader-drain mutant";
}

// The full differential harness across every backend — the four chassis
// policies, the sharded tier, LibTm and the serial reference — must agree
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
