//===- stm/Tl2.cpp - TL2 algorithm implementation -------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stm/Tl2.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace gstm;

void Tl2Txn::begin(TxId Tx) {
  CurrentTx = Tx;
  Rv = S.clock().sample();
  ReadSet.clear();
  WriteLog.clear();
  WriteIndex.clear();
  WriteFilter = 0;
  Acquired.clear();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxBegin(Thread, Tx, Rv);
}

bool Tl2Txn::lookupWriteSet(const std::atomic<uint64_t> *Addr,
                            uint64_t &Value) {
  if ((WriteFilter & filterSignature(Addr)) == 0)
    return false;
  const uint32_t *Pos = WriteIndex.find(Addr);
  if (!Pos)
    return false;
  Value = WriteLog[*Pos].Value;
  return true;
}

uint64_t Tl2Txn::loadWord(const std::atomic<uint64_t> &Word) {
  maybePreempt();
  // Read-after-write: serve buffered values from the write set.
  uint64_t Buffered;
  if (lookupWriteSet(&Word, Buffered)) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, &Word, Buffered, /*Version=*/0,
                  /*Buffered=*/true);
    return Buffered;
  }

  std::atomic<uint64_t> &Stripe = S.lockTable().stripeFor(&Word);
  uint64_t Pre = Stripe.load(std::memory_order_acquire);
  StripeState PreState = LockTable::decode(Pre);
  // A locked stripe is always someone else's in-flight commit: this
  // descriptor only holds stripes inside commitOrThrow, after its body
  // finished loading.
  if (PreState.Locked)
    abortOnOwner(PreState.Owner, AbortSite::Read);

  uint64_t Value = Word.load(std::memory_order_acquire);

  uint64_t Post = Stripe.load(std::memory_order_acquire);
  if (Post != Pre) {
    StripeState PostState = LockTable::decode(Post);
    if (PostState.Locked)
      abortOnOwner(PostState.Owner, AbortSite::Read);
    abortOnVersion(PostState.Version, AbortSite::Read);
  }
  if (PreState.Version > Rv)
    abortOnVersion(PreState.Version, AbortSite::Read);

  ReadSet.push_back(&Stripe);
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxLoad(Thread, &Word, Value, PreState.Version,
                /*Buffered=*/false);
  return Value;
}

void Tl2Txn::storeWord(std::atomic<uint64_t> &Word, uint64_t Value) {
  maybePreempt();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxStore(Thread, &Word, Value);
  uint64_t Sig = filterSignature(&Word);
  if ((WriteFilter & Sig) != 0) {
    if (const uint32_t *Pos = WriteIndex.find(&Word)) {
      WriteLog[*Pos].Value = Value;
      return;
    }
  }
  WriteFilter |= Sig;
  WriteIndex.insert(&Word, static_cast<uint32_t>(WriteLog.size()));
  WriteLog.push_back(WriteEntry{&Word, Value});
}

void Tl2Txn::commitOrThrow(uint32_t PriorAborts) {
  TxThreadPair Self = packPair(CurrentTx, Thread);

  // Read-only transactions: every read was validated against rv when it
  // happened, so the snapshot is consistent and no locks are needed.
  if (WriteLog.empty()) {
    Shard->recordCommit(PriorAborts, /*ReadOnly=*/true);
    if (TxEventObserver *Obs = S.observer())
      Obs->onCommit(CommitEvent{Thread, CurrentTx, /*Version=*/0,
                                PriorAborts, /*ReadOnly=*/true});
    return;
  }

  // Acquire the write-set stripe locks in index order. Ordered
  // acquisition makes lock-acquisition deadlock impossible, so a
  // bounded-spin bailout is unnecessary; contention surfaces as
  // read-time / validation aborts.
  StripeScratch.clear();
  for (const WriteEntry &E : WriteLog)
    StripeScratch.push_back(S.lockTable().indexFor(E.Addr));
  std::sort(StripeScratch.begin(), StripeScratch.end());
  StripeScratch.truncate(static_cast<size_t>(
      std::unique(StripeScratch.begin(), StripeScratch.end()) -
      StripeScratch.begin()));

  for (size_t Index : StripeScratch) {
    std::atomic<uint64_t> &Stripe = S.lockTable().stripeAt(Index);
    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked)
        abortOnOwner(OldState.Owner, // rollback happens in the report
                     AbortSite::LockAcquire);
      if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        break;
    }
    Acquired.push_back(AcquiredLock{Index, Old});
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(Thread, Index);
  }

  // Single-fence commit (2PLSF/zardoshti "SINGLEFENCEOPT" lineage):
  // validate, write the data back, and only then advance the clock and
  // publish the versions — stock TL2's N release-store publish loop
  // becomes relaxed stores behind one release fence.
  //
  // The seq_cst fence is the one ordering this shape cannot drop. Stock
  // TL2 advances the clock (a seq_cst fetch_add) between lock acquisition
  // and validation, so each committer's lock CAS is globally ordered
  // before the other's validation loads. With the clock advance moved
  // after writeback, acq_rel CAS + acquire loads alone permit
  // store-buffering — two cyclically conflicting committers each miss the
  // other's freshly taken lock, both validate clean, and both commit a
  // lost update (real on POWER; invisible on x86/ARMv8, so check_fuzz
  // cannot catch it).
  // stm-order: fence(seq_cst) before(validateReadSet) label(Tl2Txn::commitOrThrow single-fence commit)
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Validation is UNCONDITIONAL. Stock TL2's `wv == rv+1` elision
  // reasons "no commit interleaved between my rv sample and my clock
  // advance"; with the advance after writeback, two cyclically
  // conflicting writers could both observe a quiescent clock, both skip
  // validation, and both commit a lost update. The branch-free fast pass
  // keeps the check cheap. (Fault.SkipReadValidation is the self-test
  // mutant that omits revalidation entirely; see Tl2FaultInjection.)
  const Tl2Config &Cfg = S.config();
  if (!Cfg.Fault.SkipReadValidation)
    validateReadSet(Self);

  // The torn-publish self-test mutant defers the writeback until after
  // the version publish below.
  const bool Torn = Cfg.Fault.TornVersionPublish;
  if (!Torn)
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);

  // One fence orders the writeback before every version publish: a
  // reader whose acquire load of a stripe observes one of the relaxed
  // stores below synchronizes with this fence ([atomics.fences]) and
  // therefore sees the new data, exactly as it would have with
  // per-stripe release stores.
  std::atomic_thread_fence(std::memory_order_release);

  uint64_t Wv = S.clock().advance();
  // Publish attribution before the new version becomes visible so a
  // victim observing Wv can already resolve the committer.
  S.commitRing().record(Wv, Self);
  for (const AcquiredLock &L : Acquired)
    S.lockTable().stripeAt(L.StripeIndex)
        .store(LockTable::encodeVersion(Wv), std::memory_order_relaxed);
  Acquired.clear();

  if (Torn) {
    // Self-test mutant: the locks are already released at wv; yield to
    // widen the window in which readers validate new-version stripes
    // over old data, then write the data back.
    std::this_thread::yield();
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);
  }

  Shard->recordCommit(PriorAborts, /*ReadOnly=*/false);
  if (TxEventObserver *Obs = S.observer())
    Obs->onCommit(CommitEvent{Thread, CurrentTx, Wv, PriorAborts,
                              /*ReadOnly=*/false});
}

void Tl2Txn::validateReadSet(TxThreadPair Self) {
  // Fast pass: branch-free OR-reduction over the read set. A stripe word
  // is suspicious iff it is locked (bit 0) or carries a version newer
  // than rv; both conditions fold into the accumulator without a single
  // conditional inside the loop, so the common all-clean case runs as a
  // straight load/or chain the CPU can pipeline.
  const std::atomic<uint64_t> *const *Stripes = ReadSet.data();
  const size_t N = ReadSet.size();
  const uint64_t Snapshot = Rv;
  uint64_t Suspicious = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t W = Stripes[I]->load(std::memory_order_acquire);
    Suspicious |= (W & 1) | static_cast<uint64_t>((W >> 1) > Snapshot);
  }
  if (Suspicious == 0)
    return;

  // Slow pass: something was locked or too new — re-walk with full
  // attribution. Stripes this commit locked itself (read-then-written
  // locations) always land here; their reads are validated against the
  // pre-lock word, or a commit that slid in between our read and our
  // lock acquisition would go undetected and be silently overwritten.
  // Sound even though the words are re-read: versions only grow, and a
  // stripe that went clean in between is genuinely clean.
  for (const std::atomic<uint64_t> *Stripe : ReadSet) {
    uint64_t Word = Stripe->load(std::memory_order_acquire);
    StripeState State = LockTable::decode(Word);
    if (State.Locked) {
      if (State.Owner != Self)
        abortOnOwner(State.Owner, AbortSite::CommitValidate);
      uint64_t PreLock = preLockWordFor(Stripe);
      StripeState PreLockState = LockTable::decode(PreLock);
      if (PreLockState.Version > Rv)
        abortOnVersion(PreLockState.Version, AbortSite::CommitValidate);
      continue;
    }
    if (State.Version > Rv)
      abortOnVersion(State.Version, AbortSite::CommitValidate);
  }
}

uint64_t Tl2Txn::preLockWordFor(const std::atomic<uint64_t> *Stripe) const {
  // Acquired is sorted by stripe index and the lock table is one
  // contiguous array, so pointer order matches index order.
  auto It = std::lower_bound(
      Acquired.begin(), Acquired.end(), Stripe,
      [this](const AcquiredLock &L, const std::atomic<uint64_t> *Ptr) {
        return &S.lockTable().stripeAt(L.StripeIndex) < Ptr;
      });
  assert(It != Acquired.end() &&
         &S.lockTable().stripeAt(It->StripeIndex) == Stripe &&
         "self-locked stripe missing from the acquired list");
  return It->PreviousWord;
}

void Tl2Txn::releaseAcquiredLocks() {
  // Restore the pre-lock words so the stripes revert to their old
  // versions; nothing was written back yet.
  for (auto It = Acquired.rbegin(); It != Acquired.rend(); ++It)
    S.lockTable().stripeAt(It->StripeIndex)
        .store(It->PreviousWord, std::memory_order_release);
  Acquired.clear();
}

void Tl2Txn::abortOnOwner(TxThreadPair Owner, AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::KnownCommitter, Owner,
                                 /*CauseVersion=*/0, Site});
}

void Tl2Txn::abortOnVersion(uint64_t Version, AbortSite Site) {
  TxThreadPair Committer;
  bool Hit = S.commitRing().lookup(Version, Committer);
  Shard->recordCommitRingLookup(Hit);
  if (Hit)
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter, Committer,
                                   Version, Site});
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter,
                                 /*Cause=*/0, Version, Site});
}

void Tl2Txn::abortUnknown(AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter,
                                 /*Cause=*/0, /*CauseVersion=*/0, Site});
}

void Tl2Txn::retryAbort() {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx, AbortCauseKind::Explicit,
                                 /*Cause=*/0, /*CauseVersion=*/0,
                                 AbortSite::Explicit});
}

void Tl2Txn::reportAbortAndThrow(const AbortEvent &E) {
  LastOpens = opensCount();
  // Commit-time aborts may hold stripes: restore their pre-lock words.
  // (Body-time aborts hold none; the call is a no-op then.)
  releaseAcquiredLocks();
  LastEnemyKnown = E.Kind == AbortCauseKind::KnownCommitter;
  LastEnemy = LastEnemyKnown ? E.Cause : 0;
  Shard->recordAbort(E.Kind, E.Site);
  if (TxEventObserver *Obs = S.observer())
    Obs->onAbort(E);
  throw TxAbortException{};
}
