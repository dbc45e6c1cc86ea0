//===- libtm/LibTm.cpp -----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "libtm/LibTm.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

using namespace gstm;

void LibTxn::begin(TxId Tx) {
  CurrentTx = Tx;
  Rv = S.clock().sample();
  ReadSet.clear();
  WriteObjs.clear();
  WriteIndex.clear();
  WriteData.clear();
  Acquired.clear();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxBegin(Thread, Tx, Rv);
}

void LibTxn::readWords(TObjBase &Obj, uint64_t *Out) {
  maybePreempt();
  // Read-after-write: serve the buffered payload.
  if (const uint32_t *Pos = WriteIndex.find(&Obj)) {
    const uint64_t *Buffered = &WriteData[*Pos];
    std::copy(Buffered, Buffered + Obj.numWords(), Out);
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, &Obj, Out[0], /*Version=*/0, /*Buffered=*/true);
    return;
  }

  uint64_t Pre = Obj.meta().load(std::memory_order_acquire);
  StripeState PreState = LockTable::decode(Pre);
  if (PreState.Locked)
    abortOnOwner(PreState.Owner, AbortSite::Read);

  std::atomic<uint64_t> *Words = Obj.words();
  for (size_t I = 0, E = Obj.numWords(); I != E; ++I)
    Out[I] = Words[I].load(std::memory_order_acquire);

  uint64_t Post = Obj.meta().load(std::memory_order_acquire);
  if (Post != Pre) {
    StripeState PostState = LockTable::decode(Post);
    if (PostState.Locked)
      abortOnOwner(PostState.Owner, AbortSite::Read);
    abortOnVersion(PostState.Version, AbortSite::Read);
  }
  if (PreState.Version > Rv)
    abortOnVersion(PreState.Version, AbortSite::Read);

  ReadSet.push_back(&Obj);
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxLoad(Thread, &Obj, Out[0], PreState.Version,
                /*Buffered=*/false);
}

void LibTxn::writeWords(TObjBase &Obj, const uint64_t *In) {
  maybePreempt();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxStore(Thread, &Obj, In[0]);
  if (const uint32_t *Pos = WriteIndex.find(&Obj)) {
    std::copy(In, In + Obj.numWords(), &WriteData[*Pos]);
    return;
  }
  size_t Offset = WriteData.size();
  WriteIndex.insert(&Obj, static_cast<uint32_t>(Offset));
  WriteObjs.push_back(&Obj);
  for (size_t I = 0, E = Obj.numWords(); I != E; ++I)
    WriteData.push_back(In[I]);
}

uint64_t LibTxn::commitOrThrow() {
  TxThreadPair Self = packPair(CurrentTx, Thread);

  if (WriteObjs.empty())
    return 0;

  // Lock the written objects in address order (deadlock-free); readers
  // are never blocked — they abort if they validate against us, which is
  // LibTM's abort-readers resolution.
  std::sort(WriteObjs.begin(), WriteObjs.end());
  for (TObjBase *Obj : WriteObjs) {
    uint64_t Old = Obj->meta().load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked)
        abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
      if (Obj->meta().compare_exchange_weak(
              Old, LockTable::encodeLocked(Self),
              std::memory_order_acq_rel, std::memory_order_relaxed))
        break;
    }
    Acquired.push_back({Obj, Old});
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(
          Thread, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Obj)));
  }

  // Single-fence commit, as in Tl2Policy::commit: validate, write
  // back, then advance the clock and publish all metadata with relaxed
  // stores behind one release fence.
  //
  // The seq_cst fence stands in for stock TL2's clock fetch_add between
  // lock acquisition and validation: it globally orders our meta-word
  // lock CAS before any other committer's validation loads. Without it,
  // store-buffering lets two cyclically conflicting writers each miss the
  // other's lock and both commit (see the matching fence in
  // Tl2Policy::commit).
  // stm-order: fence(seq_cst) before(validateReadSet) label(LibTxn::commitOrThrow single-fence commit)
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Unconditional: the `wv == rv+1` elision is unsound once the clock
  // advances after writeback (see Tl2Policy::commit).
  validateReadSet(Self);

  for (size_t W = 0, E = WriteObjs.size(); W != E; ++W) {
    TObjBase *Obj = WriteObjs[W];
    const uint64_t *In = &WriteData[*WriteIndex.find(Obj)];
    std::atomic<uint64_t> *Words = Obj->words();
    for (size_t I = 0, N = Obj->numWords(); I != N; ++I)
      Words[I].store(In[I], std::memory_order_release);
  }
  std::atomic_thread_fence(std::memory_order_release);

  uint64_t Wv = S.clock().advance();
  S.commitRing().record(Wv, Self);
  for (auto &[Obj, Old] : Acquired) {
    (void)Old;
    Obj->meta().store(LockTable::encodeVersion(Wv),
                      std::memory_order_relaxed);
  }
  Acquired.clear();
  return Wv;
}

void LibTxn::reportCommit(uint64_t Wv, uint32_t PriorAborts) {
  const bool ReadOnly = Wv == 0;
  Shard->recordCommit(PriorAborts, ReadOnly);
  if (TxEventObserver *Obs = S.observer())
    Obs->onCommit(CommitEvent{Thread, CurrentTx, Wv, PriorAborts, ReadOnly});
}

void LibTxn::validateReadSet(TxThreadPair Self) {
  // Fast pass: branch-free OR-reduction, as in Tl2Policy::validateReadSet.
  // A metadata word is suspicious iff locked (bit 0) or newer than rv.
  TObjBase *const *Objs = ReadSet.data();
  const size_t N = ReadSet.size();
  const uint64_t Snapshot = Rv;
  uint64_t Suspicious = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t W = Objs[I]->meta().load(std::memory_order_acquire);
    Suspicious |= (W & 1) | static_cast<uint64_t>((W >> 1) > Snapshot);
  }
  if (Suspicious == 0)
    return;

  // Slow pass: full attribution. Objects this commit locked itself
  // (read-then-written) always land here and validate against their
  // pre-lock metadata, or a commit that interleaved between our read and
  // our lock would go undetected.
  for (TObjBase *Obj : ReadSet) {
    uint64_t Word = Obj->meta().load(std::memory_order_acquire);
    StripeState State = LockTable::decode(Word);
    if (State.Locked) {
      if (State.Owner != Self)
        abortOnOwner(State.Owner, AbortSite::CommitValidate);
      auto It = std::lower_bound(
          Acquired.begin(), Acquired.end(), Obj,
          [](const std::pair<TObjBase *, uint64_t> &L, TObjBase *Ptr) {
            return L.first < Ptr;
          });
      assert(It != Acquired.end() && It->first == Obj &&
             "self-locked object missing from the acquired list");
      StripeState PreLock = LockTable::decode(It->second);
      if (PreLock.Version > Rv)
        abortOnVersion(PreLock.Version, AbortSite::CommitValidate);
      continue;
    }
    if (State.Version > Rv)
      abortOnVersion(State.Version, AbortSite::CommitValidate);
  }
}

void LibTxn::abortOnOwner(TxThreadPair Owner, AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::KnownCommitter, Owner, 0,
                                 Site});
}

void LibTxn::abortOnVersion(uint64_t Version, AbortSite Site) {
  TxThreadPair Committer;
  bool Hit = S.commitRing().lookup(Version, Committer);
  Shard->recordCommitRingLookup(Hit);
  if (Hit)
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter,
                                   Committer, Version, Site});
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter, 0,
                                 Version, Site});
}

void LibTxn::retryAbort() {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx, AbortCauseKind::Explicit,
                                 0, 0, AbortSite::Explicit});
}

void LibTxn::reportAbort(const AbortEvent &E) {
  // Commit-time aborts hold object locks: restore their pre-lock
  // metadata; nothing was written back yet.
  for (auto It = Acquired.rbegin(); It != Acquired.rend(); ++It)
    It->first->meta().store(It->second, std::memory_order_release);
  Acquired.clear();
  LastOpens = opensCount();
  LastEnemyKnown = E.Kind == AbortCauseKind::KnownCommitter;
  LastEnemy = LastEnemyKnown ? E.Cause : 0;
  Shard->recordAbort(E.Kind, E.Site);
  if (TxEventObserver *Obs = S.observer())
    Obs->onAbort(E);
}

void LibTxn::reportAbortAndThrow(const AbortEvent &E) {
  reportAbort(E);
  throw TxAbortException{};
}
