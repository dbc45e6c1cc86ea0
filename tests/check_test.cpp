//===- tests/check_test.cpp - Correctness-harness tests -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Tests of the src/check/ correctness harness itself, in three tiers:
// the HistoryRecorder against a live TL2 runtime, the checkers against
// hand-built histories with known verdicts, and the mutation self-test —
// the fuzzer must flag deliberately broken TL2 variants (EngineFault) on
// the rmw and B-tree workloads while passing all real backends.
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "check/Fuzz.h"
#include "check/History.h"
#include "check/TmdsFuzz.h"
#include "engine/Tl2.h"
#include "stm/Perturb.h"
#include "stm/TVar.h"

#include "gtest/gtest.h"

using namespace gstm;

namespace {

//===----------------------------------------------------------------------===//
// Recorder against a live runtime
//===----------------------------------------------------------------------===//

TEST(HistoryRecorderTest, CapturesCommitsAbortsAndAccesses) {
  Tl2Stm Stm;
  TVar<uint64_t> A{1}, B{2};

  HistoryRecorder Rec(1);
  Rec.noteInitial(&A.word(), 1);
  Rec.noteInitial(&B.word(), 2);
  Stm.setAccessObserver(&Rec);
  Stm.setObserver(&Rec);

  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(A, Tx.load(A) + 10); });
  Txn.run(1, [&](Tl2Txn &Tx) { (void)Tx.load(B); });
  bool First = true;
  Txn.run(2, [&](Tl2Txn &Tx) {
    if (First) {
      First = false;
      Tx.retryAbort();
    }
    Tx.store(B, Tx.load(B) + 5);
  });

  History H = Rec.take();
  ASSERT_EQ(H.Attempts.size(), 4u); // 3 commits + 1 explicit abort
  EXPECT_EQ(H.committedCount(), 3u);

  const AttemptRecord &Update = H.Attempts[0];
  EXPECT_TRUE(Update.committed());
  EXPECT_FALSE(Update.ReadOnly);
  EXPECT_GE(Update.CommitVersion, 1u);
  auto Reads = Update.globalReads();
  ASSERT_EQ(Reads.size(), 1u);
  EXPECT_EQ(Reads[0]->Addr, &A.word());
  EXPECT_EQ(Reads[0]->Value, 1u);
  auto Writes = Update.finalWrites();
  ASSERT_EQ(Writes.size(), 1u);
  EXPECT_EQ(Writes[0].second, 11u);
  // The commit also recorded its stripe lock acquisition.
  bool SawLock = false;
  for (const AccessRecord &Acc : Update.Accesses)
    SawLock |= Acc.K == AccessRecord::Kind::LockAcquire;
  EXPECT_TRUE(SawLock);

  EXPECT_TRUE(H.Attempts[1].committed());
  EXPECT_TRUE(H.Attempts[1].ReadOnly);
  EXPECT_EQ(H.Attempts[2].Outcome, AttemptOutcome::Aborted);
  EXPECT_TRUE(H.Attempts[3].committed());

  // Begin stamps are strictly ordered after the merge.
  for (size_t I = 1; I < H.Attempts.size(); ++I)
    EXPECT_LT(H.Attempts[I - 1].BeginSeq, H.Attempts[I].BeginSeq);

  EXPECT_TRUE(checkAll(H).ok()) << checkAll(H).Reason;
  EXPECT_TRUE(lockTableQuiescent(Stm.lockTable()));
}

TEST(HistoryRecorderTest, BufferedReadsDoNotBecomeGlobalReads) {
  Tl2Stm Stm;
  TVar<uint64_t> A{7};
  HistoryRecorder Rec(1);
  Rec.noteInitial(&A.word(), 7);
  Stm.setAccessObserver(&Rec);
  Stm.setObserver(&Rec);

  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    Tx.store(A, 100);
    EXPECT_EQ(Tx.load(A), 100u); // read-after-write: buffered
  });

  History H = Rec.take();
  ASSERT_EQ(H.Attempts.size(), 1u);
  EXPECT_TRUE(H.Attempts[0].globalReads().empty());
  bool SawBuffered = false;
  for (const AccessRecord &Acc : H.Attempts[0].Accesses)
    SawBuffered |= Acc.K == AccessRecord::Kind::Load && Acc.Buffered;
  EXPECT_TRUE(SawBuffered);
}

//===----------------------------------------------------------------------===//
// Checkers on hand-built histories
//===----------------------------------------------------------------------===//

// Locations for synthetic histories; only the addresses matter.
uint64_t SlotX, SlotY;

AttemptRecord mkAttempt(ThreadId Thread, uint64_t Begin, uint64_t End,
                        uint64_t Rv, AttemptOutcome Outcome,
                        uint64_t Cv = 0, bool ReadOnly = false) {
  AttemptRecord A;
  A.Thread = Thread;
  A.Tx = 0;
  A.ReadVersion = Rv;
  A.BeginSeq = Begin;
  A.EndSeq = End;
  A.Outcome = Outcome;
  A.CommitVersion = Cv;
  A.ReadOnly = ReadOnly;
  return A;
}

void addRead(AttemptRecord &A, const void *Addr, uint64_t Value,
             uint64_t Version) {
  AccessRecord R;
  R.K = AccessRecord::Kind::Load;
  R.Addr = Addr;
  R.Value = Value;
  R.Version = Version;
  A.Accesses.push_back(R);
}

void addWrite(AttemptRecord &A, const void *Addr, uint64_t Value) {
  AccessRecord W;
  W.K = AccessRecord::Kind::Store;
  W.Addr = Addr;
  W.Value = Value;
  A.Accesses.push_back(W);
}

TEST(CheckerTest, AcceptsSerialReadModifyWrites) {
  History H;
  H.Initial[&SlotX] = 100;

  AttemptRecord T1 =
      mkAttempt(0, 0, 1, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addRead(T1, &SlotX, 100, 0);
  addWrite(T1, &SlotX, 150);
  AttemptRecord T2 =
      mkAttempt(1, 2, 3, 1, AttemptOutcome::Committed, /*Cv=*/2);
  addRead(T2, &SlotX, 150, 1);
  addWrite(T2, &SlotX, 180);
  H.Attempts = {T1, T2};

  CheckResult R = checkAll(H);
  EXPECT_TRUE(R.ok()) << R.Reason;
}

TEST(CheckerTest, FlagsDuplicateCommitVersion) {
  History H;
  H.Attempts.push_back(
      mkAttempt(0, 0, 1, 0, AttemptOutcome::Committed, /*Cv=*/5));
  H.Attempts.push_back(
      mkAttempt(1, 2, 3, 0, AttemptOutcome::Committed, /*Cv=*/5));
  EXPECT_TRUE(checkInvariants(H).violation());
}

TEST(CheckerTest, FlagsNonMonotonicPerThreadCommits) {
  History H;
  H.Attempts.push_back(
      mkAttempt(0, 0, 1, 0, AttemptOutcome::Committed, /*Cv=*/5));
  H.Attempts.push_back(
      mkAttempt(0, 2, 3, 0, AttemptOutcome::Committed, /*Cv=*/3));
  EXPECT_TRUE(checkInvariants(H).violation());
}

TEST(CheckerTest, FlagsReadValidatedBeyondSnapshot) {
  History H;
  H.Initial[&SlotX] = 100;
  AttemptRecord T =
      mkAttempt(0, 0, 1, /*Rv=*/2, AttemptOutcome::Committed, /*Cv=*/3);
  addRead(T, &SlotX, 100, /*Version=*/4); // validated past its own rv
  H.Attempts.push_back(T);
  EXPECT_TRUE(checkInvariants(H).violation());
}

TEST(CheckerTest, FlagsAbortedWriteVisible) {
  History H;
  H.Initial[&SlotX] = 100;
  AttemptRecord Doomed = mkAttempt(0, 0, 3, 0, AttemptOutcome::Aborted);
  addWrite(Doomed, &SlotX, 777);
  AttemptRecord Reader =
      mkAttempt(1, 1, 4, 0, AttemptOutcome::Committed, 0, /*ReadOnly=*/true);
  addRead(Reader, &SlotX, 777, 0);
  H.Attempts = {Doomed, Reader};
  CheckResult R = checkAll(H);
  EXPECT_TRUE(R.violation());
  EXPECT_NE(R.Reason.find("stale"), std::string::npos) << R.Reason;
}

TEST(CheckerTest, FlagsInconsistentSnapshot) {
  History H;
  H.Initial[&SlotX] = 100;
  H.Initial[&SlotY] = 200;

  // Writer installs X=101, Y=201 at version 2.
  AttemptRecord W =
      mkAttempt(0, 1, 4, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addWrite(W, &SlotX, 101);
  addWrite(W, &SlotY, 201);
  // Aborted reader saw old X next to new Y: no snapshot contains both.
  AttemptRecord R = mkAttempt(1, 2, 5, 2, AttemptOutcome::Aborted);
  addRead(R, &SlotX, 100, 0);
  addRead(R, &SlotY, 201, 2);
  H.Attempts = {W, R};

  CheckResult Res = checkOpacity(H);
  EXPECT_TRUE(Res.violation());
  EXPECT_NE(Res.Reason.find("snapshot"), std::string::npos) << Res.Reason;
}

TEST(CheckerTest, FlagsStaleValueUnderFresherVersion) {
  History H;
  H.Initial[&SlotX] = 100;
  AttemptRecord W =
      mkAttempt(0, 0, 1, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addWrite(W, &SlotX, 101);
  // Torn-publish signature: old data validated against the new version.
  AttemptRecord R = mkAttempt(1, 2, 3, 2, AttemptOutcome::Aborted);
  addRead(R, &SlotX, 100, /*Version=*/2);
  H.Attempts = {W, R};

  CheckResult Res = checkOpacity(H);
  EXPECT_TRUE(Res.violation());
  EXPECT_NE(Res.Reason.find("stale"), std::string::npos) << Res.Reason;
}

TEST(CheckerTest, FlagsLostUpdateCycle) {
  History H;
  H.Initial[&SlotX] = 100;
  // Concurrent read-modify-writes that both read the initial value: no
  // serial order explains both commits.
  AttemptRecord T1 =
      mkAttempt(0, 0, 4, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addRead(T1, &SlotX, 100, 0);
  addWrite(T1, &SlotX, 150);
  AttemptRecord T2 =
      mkAttempt(1, 1, 5, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addRead(T2, &SlotX, 100, 0);
  addWrite(T2, &SlotX, 130);
  H.Attempts = {T1, T2};

  EXPECT_TRUE(checkOpacity(H).violation());
}

TEST(CheckerTest, AcceptsConcurrentDisjointWriters) {
  History H;
  H.Initial[&SlotX] = 100;
  H.Initial[&SlotY] = 200;
  AttemptRecord T1 =
      mkAttempt(0, 0, 4, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addRead(T1, &SlotX, 100, 0);
  addWrite(T1, &SlotX, 150);
  AttemptRecord T2 =
      mkAttempt(1, 1, 5, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addRead(T2, &SlotY, 200, 0);
  addWrite(T2, &SlotY, 230);
  H.Attempts = {T1, T2};

  CheckResult R = checkAll(H);
  EXPECT_TRUE(R.ok()) << R.Reason;
}

TEST(CheckerTest, LargeSerialHistoryIsSerializable) {
  // 5,000 back-to-back read-modify-writes over four locations: far past
  // any search budget, and every pair of transactions is in real-time
  // order.
  uint64_t Slots[4] = {};
  History H;
  uint64_t Value[4], Version[4] = {};
  for (unsigned L = 0; L < 4; ++L)
    H.Initial[&Slots[L]] = Value[L] = 1000 * L;
  for (uint64_t K = 0; K < 5000; ++K) {
    const unsigned L = K % 4;
    AttemptRecord T = mkAttempt(static_cast<ThreadId>(K % 3), 2 * K,
                                2 * K + 1, /*Rv=*/K,
                                AttemptOutcome::Committed, /*Cv=*/K + 1);
    addRead(T, &Slots[L], Value[L], Version[L]);
    addWrite(T, &Slots[L], ++Value[L]);
    Version[L] = K + 1;
    H.Attempts.push_back(std::move(T));
  }
  CheckResult R = checkAll(H);
  EXPECT_TRUE(R.ok()) << R.Reason;
}

TEST(CheckerTest, DuplicateValuesAreStillJudged) {
  History H;
  H.Initial[&SlotX] = 100;
  // A lost update whose two writes store the value both read: no value
  // tells the writers apart from each other or from the initial value,
  // the commit versions do.
  AttemptRecord T1 =
      mkAttempt(0, 0, 4, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addRead(T1, &SlotX, 100, 0);
  addWrite(T1, &SlotX, 100);
  AttemptRecord T2 =
      mkAttempt(1, 1, 5, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addRead(T2, &SlotX, 100, 0);
  addWrite(T2, &SlotX, 100);
  H.Attempts = {T1, T2};

  EXPECT_TRUE(checkOpacity(H).violation());
}

// T1 commits X at version 1; T2 reads X's initial value at version 0 and
// then commits read-only or aborts. Only the real-time order can decide
// between the two.
History realTimeHistory(bool T1EndsFirst, AttemptOutcome ReaderOutcome) {
  History H;
  H.Initial[&SlotX] = 100;
  AttemptRecord T1 =
      mkAttempt(0, 0, T1EndsFirst ? 1 : 3, 0, AttemptOutcome::Committed,
                /*Cv=*/1);
  addWrite(T1, &SlotX, 101);
  AttemptRecord T2 =
      mkAttempt(1, 2, 4, 0, ReaderOutcome, 0,
                /*ReadOnly=*/ReaderOutcome == AttemptOutcome::Committed);
  addRead(T2, &SlotX, 100, 0);
  H.Attempts = {T1, T2};
  return H;
}

TEST(CheckerTest, FlagsRealTimeInversion) {
  EXPECT_TRUE(
      checkAll(realTimeHistory(true, AttemptOutcome::Committed)).violation());
  // Opacity holds aborted attempts to the same real-time order.
  CheckResult R = checkAll(realTimeHistory(true, AttemptOutcome::Aborted));
  EXPECT_TRUE(R.violation());
  EXPECT_NE(R.Reason.find("aborted"), std::string::npos) << R.Reason;
}

// The same reads with T1 and T2 overlapping: the chain adds no edge.
TEST(CheckerTest, AcceptsOverlappingIntervals) {
  for (AttemptOutcome Outcome :
       {AttemptOutcome::Committed, AttemptOutcome::Aborted}) {
    CheckResult R = checkAll(realTimeHistory(false, Outcome));
    EXPECT_TRUE(R.ok()) << R.Reason;
  }
}

TEST(CheckerTest, FlagsVersionThatDisagreesWithValue) {
  History H;
  H.Initial[&SlotX] = 100;
  AttemptRecord W1 =
      mkAttempt(0, 0, 1, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addWrite(W1, &SlotX, 101);
  AttemptRecord W2 =
      mkAttempt(0, 2, 3, 1, AttemptOutcome::Committed, /*Cv=*/2);
  addWrite(W2, &SlotX, 102);
  // The version names W2, the value is W1's.
  AttemptRecord R = mkAttempt(1, 4, 5, 2, AttemptOutcome::Committed, 0,
                              /*ReadOnly=*/true);
  addRead(R, &SlotX, 101, 2);
  H.Attempts = {W1, W2, R};

  CheckResult Res = checkOpacity(H);
  EXPECT_TRUE(Res.violation());
  EXPECT_NE(Res.Reason.find("installed"), std::string::npos) << Res.Reason;
}

TEST(CheckerTest, FlagsWriteSkew) {
  History H;
  H.Initial[&SlotX] = 100;
  H.Initial[&SlotY] = 200;
  // Concurrent: each reads the location the other writes.
  AttemptRecord T1 =
      mkAttempt(0, 0, 4, 0, AttemptOutcome::Committed, /*Cv=*/1);
  addRead(T1, &SlotY, 200, 0);
  addWrite(T1, &SlotX, 101);
  AttemptRecord T2 =
      mkAttempt(1, 1, 5, 0, AttemptOutcome::Committed, /*Cv=*/2);
  addRead(T2, &SlotX, 100, 0);
  addWrite(T2, &SlotY, 201);
  H.Attempts = {T1, T2};

  EXPECT_TRUE(checkOpacity(H).violation());
}

TEST(CheckerTest, LockTableResidueIsDetected) {
  LockTable Locks(4);
  EXPECT_TRUE(lockTableQuiescent(Locks));
  Locks.stripeAt(3).store(LockTable::encodeLocked(packPair(9, 1)),
                          std::memory_order_release);
  std::string Why;
  EXPECT_FALSE(lockTableQuiescent(Locks, &Why));
  EXPECT_NE(Why.find("stripe 3"), std::string::npos) << Why;
}

//===----------------------------------------------------------------------===//
// Perturber
//===----------------------------------------------------------------------===//

TEST(SchedulePerturberTest, ForwardsEventsAndIsSeedDeterministic) {
  HistoryRecorder Rec(1);
  SchedulePerturber P1(1, /*Seed=*/42, &Rec, /*YieldShift=*/1);
  SchedulePerturber P2(1, /*Seed=*/42, nullptr, /*YieldShift=*/1);

  P1.onTxBegin(0, 0, 0);
  P2.onTxBegin(0, 0, 0);
  for (uint64_t I = 0; I < 64; ++I) {
    P1.onTxLoad(0, &SlotX, I, 0, false);
    P2.onTxLoad(0, &SlotX, I, 0, false);
  }
  P1.onTxStore(0, &SlotX, 1);
  P2.onTxStore(0, &SlotX, 1);

  // Same seed, same event stream: identical yield decisions.
  EXPECT_EQ(P1.yieldCount(), P2.yieldCount());

  // Everything reached the downstream recorder.
  Rec.onCommit(CommitEvent{0, 0, 1, 0, false});
  History H = Rec.take();
  ASSERT_EQ(H.Attempts.size(), 1u);
  EXPECT_EQ(H.Attempts[0].Accesses.size(), 65u);
}

TEST(SchedulePerturberTest, YieldsOnlyAtLoadsAndStores) {
  // At shift 0 every yield point fires, so the count is the number of
  // loads and stores: attempt begins never yield, and neither do lock
  // acquires, which would hold commit locks across the yield.
  struct CountingNext : TxAccessObserver {
    unsigned Begins = 0, Loads = 0, Stores = 0, Locks = 0;
    void onTxBegin(ThreadId, TxId, uint64_t) override { ++Begins; }
    void onTxLoad(ThreadId, const void *, uint64_t, uint64_t,
                  bool) override {
      ++Loads;
    }
    void onTxStore(ThreadId, const void *, uint64_t) override { ++Stores; }
    void onLockAcquire(ThreadId, uint64_t) override { ++Locks; }
  } Next;
  SchedulePerturber P(1, /*Seed=*/7, &Next, /*YieldShift=*/0);

  P.onTxBegin(0, 0, 0);
  for (uint64_t I = 0; I < 3; ++I)
    P.onTxLoad(0, &SlotX, I, 0, false);
  P.onTxStore(0, &SlotX, 1);
  P.onTxStore(0, &SlotY, 2);
  P.onLockAcquire(0, 1);
  P.onLockAcquire(0, 2);

  EXPECT_EQ(P.yieldCount(), 5u);
  EXPECT_EQ(Next.Begins, 1u);
  EXPECT_EQ(Next.Loads, 3u);
  EXPECT_EQ(Next.Stores, 2u);
  EXPECT_EQ(Next.Locks, 2u);
}

//===----------------------------------------------------------------------===//
// Fuzzer: real backends pass, broken variants are flagged
//===----------------------------------------------------------------------===//

TEST(FuzzTest, PlanIsDeterministicAndSumsAreScheduleIndependent) {
  FuzzConfig Cfg;
  FuzzPlan P1 = makeFuzzPlan(7, Cfg);
  FuzzPlan P2 = makeFuzzPlan(7, Cfg);
  ASSERT_EQ(P1.Initial, P2.Initial);
  ASSERT_EQ(P1.PerThread.size(), P2.PerThread.size());
  for (size_t T = 0; T < P1.PerThread.size(); ++T) {
    ASSERT_EQ(P1.PerThread[T].size(), P2.PerThread[T].size());
    for (size_t K = 0; K < P1.PerThread[T].size(); ++K) {
      const FuzzTxn &A = P1.PerThread[T][K], &B = P2.PerThread[T][K];
      ASSERT_EQ(A.Ops.size(), B.Ops.size());
      for (size_t O = 0; O < A.Ops.size(); ++O) {
        EXPECT_EQ(A.Ops[O].Var, B.Ops[O].Var);
        EXPECT_EQ(A.Ops[O].IsWrite, B.Ops[O].IsWrite);
        EXPECT_EQ(A.Ops[O].Delta, B.Ops[O].Delta);
      }
    }
  }
  EXPECT_EQ(P1.expectedFinal(), P2.expectedFinal());
}

TEST(FuzzTest, AllRealBackendsPassDifferentially) {
  size_t Attempts = 0, Commits = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    DifferentialResult D = runDifferential(Seed);
    EXPECT_TRUE(D.passed()) << "seed " << Seed << ": " << D.Error;
    for (const auto &[B, R] : D.PerBackend) {
      EXPECT_TRUE(R.Check.ok())
          << "seed " << Seed << " " << fuzzBackendName(B) << ": "
          << R.Check.Reason;
      Attempts += R.Attempts;
      Commits += R.Committed;
    }
  }
  // The perturbation must actually provoke conflicts, or the checkers
  // only ever see serial schedules.
  EXPECT_GT(Attempts, Commits);
}

TEST(FuzzTest, ReferenceBackendIsAlwaysCleanAndCheckerOk) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    FuzzRunResult R = runFuzzIteration(Seed, FuzzBackend::Reference);
    EXPECT_TRUE(R.passed()) << "seed " << Seed << ": " << R.Error;
    EXPECT_TRUE(R.Check.ok()) << "seed " << Seed << ": " << R.Check.Reason;
  }
}

// The mutation self-test: each deliberately broken TL2 variant must be
// flagged *by the history checkers* (not merely by the final-state sum)
// within a bounded number of seeds. The clean runs above prove the same
// seeds pass without the fault, so detection is attributable to the
// injected bug.
TEST(MutationSelfTest, SkippedReadValidationIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Tl2Lazy, Cfg), 3u)
      << "checker failed to flag the skipped-validation mutant";
}

TEST(MutationSelfTest, TornVersionPublishIsCaught) {
  FuzzConfig Cfg;
  Cfg.Fault.TornVersionPublish = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Tl2Lazy, Cfg), 3u)
      << "checker failed to flag the torn-publish mutant";
}

// The map workloads run without unique values, so this one leans on
// version attribution alone.
TEST(MutationSelfTest, SkippedReadValidationIsCaughtOnBTree) {
  TmdsFuzzConfig Cfg;
  Cfg.Structure = TmdsStructure::BTree;
  Cfg.Fault.SkipReadValidation = true;
  EXPECT_GE(checkerViolations(FuzzBackend::Tl2Lazy, Cfg), 3u)
      << "checker failed to flag the skipped-validation mutant on the "
         "B-tree";
}

} // namespace
