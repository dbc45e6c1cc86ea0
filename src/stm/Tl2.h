//===- stm/Tl2.h - TL2 software transactional memory ---------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A word-based, write-back STM implementing the TL2 algorithm (Dice,
/// Shalev, Shavit, DISC'06): transactions sample a global version clock at
/// start (rv), log transactional reads, buffer transactional writes, and at
/// commit acquire per-stripe versioned locks, advance the clock (wv),
/// validate that no read stripe is newer than rv, write back, and release
/// the locks at version wv. Lazy (commit-time) conflict detection is the
/// configuration the paper evaluates; encounter-time locking with in-place
/// writes is the separate orec-eager engine (engine/OrecEager.h).
///
/// The descriptor, Tl2Descriptor, is written once as a template over its
/// runtime, which owns the orec metadata layout (the 2PLSF TL2's
/// ORECTABLE parameter): Tl2Txn runs it on Tl2Stm's flat stripe table,
/// and ShardedTxn (shard/Sharded.h) on a table partitioned into N shard
/// slices with per-shard commit rings, applied clocks and cross-shard
/// 2PC. The runtime answers every layout question through small inline
/// hooks, so the read path, validation, commit sequence and abort
/// attribution below serve both tiers.
///
/// Two paper-specific extensions over stock TL2:
///  * every commit registers (wv -> committer) in a CommitRing so aborting
///    readers can attribute their abort to the causal commit, and
///  * a StartGate hook lets guided execution withhold a transaction before
///    it (re)starts.
///
/// Usage:
/// \code
///   Tl2Stm Stm;
///   TVar<uint64_t> Counter{0};
///   Tl2Txn Txn(Stm, /*Thread=*/0);
///   Txn.run(/*Tx=*/0, [&](Tl2Txn &Tx) {
///     Tx.store(Counter, Tx.load(Counter) + 1);
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_TL2_H
#define GSTM_STM_TL2_H

#include "engine/TxnExecutor.h"
#include "stm/CommitRing.h"
#include "stm/Contention.h"
#include "stm/LockTable.h"
#include "stm/Observer.h"
#include "stm/StatsShard.h"
#include "stm/VersionClock.h"
#include "support/Ids.h"
#include "support/MiniVector.h"
#include "support/PtrIndexMap.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

namespace gstm {

template <typename T> class TVar;

/// Deliberately broken STM behavior for the correctness harness's
/// mutation self-test (src/check/, tests/check_test.cpp,
/// tests/shard_test.cpp): each knob disables one safety mechanism so the
/// history checkers can prove they flag the resulting executions.
/// Consulted only on the commit path. Never enable outside the self-test.
struct Tl2FaultInjection {
  /// Skip commit-time read-set validation: a commit that interleaved
  /// after this attempt's reads goes undetected (lost updates, stale
  /// reads entering committed state).
  bool SkipReadValidation = false;
  /// Publish the new stripe versions (releasing the commit locks) before
  /// writing the write-set values back: readers can validate a stripe at
  /// the new version while still observing the old data. On the sharded
  /// tier this tears every participating shard of a 2PC commit.
  bool TornVersionPublish = false;
};

/// Construction-time configuration of a Tl2Stm runtime.
struct Tl2Config {
  unsigned LockTableBits = 20;
  unsigned CommitRingBits = 13;
  /// Address-to-stripe hash (see StripeHashKind). Mix by default: its
  /// full-avalanche indexing measurably cuts false stripe conflicts on
  /// pointer-heavy working sets; Fibonacci remains available for A/B
  /// comparisons against stock TL2.
  StripeHashKind StripeHash = StripeHashKind::Mix;
  BackoffKind Backoff = BackoffKind::Yield;
  /// Scheduler perturbation: when non-zero, each transactional access
  /// yields the CPU with probability 2^-PreemptShift. On a machine with
  /// fewer cores than worker threads, transactions otherwise execute
  /// back-to-back within a scheduling quantum and almost never overlap,
  /// which would suppress the conflicts/aborts whose non-determinism the
  /// paper studies; random yield points restore multicore-like
  /// interleaving density (see DESIGN.md, substitutions). 0 = off.
  unsigned PreemptShift = 0;
  /// When true, every attempt's wall-clock latency is accumulated into
  /// the per-thread stats shard (two steady_clock reads per attempt).
  /// Off by default so microbenchmarks measure bare STM cost; the
  /// experiment harness turns it on (see core/Runner.h).
  bool TrackAttemptLatency = false;
  /// Fault injection for the checker self-test; all off by default.
  Tl2FaultInjection Fault;
};

/// One STM runtime instance: the shared state (clock, lock table, ring)
/// plus the instrumentation hooks (TxHooks). Workloads create one per
/// run.
class Tl2Stm : public TxHooks {
public:
  explicit Tl2Stm(const Tl2Config &Config = Tl2Config())
      : Cfg(Config), Locks(Config.LockTableBits, Config.StripeHash),
        Ring(Config.CommitRingBits) {}

  Tl2Stm(const Tl2Stm &) = delete;
  Tl2Stm &operator=(const Tl2Stm &) = delete;

  const Tl2Config &config() const { return Cfg; }
  LockTable &lockTable() { return Locks; }
  VersionClock &clock() { return Clock; }
  /// Stripe guarding \p Addr (post-run residue probes).
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Locks.stripeFor(Addr);
  }
  /// Sharded per-thread telemetry (see stm/StatsShard.h). Workers touch
  /// only their own shard; aggregate() after the run for exact totals.
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

  /// Layout hooks of Tl2Descriptor (its class comment lists the
  /// contract). The flat layout keeps no per-descriptor state, rv comes
  /// from the global clock, and the whole commit is one publish group
  /// that never waits on a held stripe.
  struct TxnState {
    TxnState(Tl2Stm &, ThreadId) {}
  };
  uint64_t beginRv(TxnState &) { return Clock.sample(); }
  std::atomic<uint64_t> &readStripe(TxnState &, const void *Addr) {
    return Locks.stripeFor(Addr);
  }
  uint64_t writeKey(TxnState &, const void *Addr) {
    return Locks.indexFor(Addr);
  }
  unsigned prepareSpinLimit(const TxnState &) const { return 0; }
  static size_t groupOf(uint64_t) { return 0; }
  CommitRing &commitRingOf(size_t) { return Ring; }
  void groupPublished(size_t, uint64_t) {}
  CommitRing &versionAbortRing(TxnState &, const std::atomic<uint64_t> *) {
    return Ring;
  }
  void committed(TxnState &, ThreadId, StatsShard &) {}
  void aborted(TxnState &, StatsShard &) {}

private:
  Tl2Config Cfg;
  VersionClock Clock;
  LockTable Locks;
  CommitRing Ring;
  Tl2Stats Counters;
};

/// Per-thread TL2 transaction descriptor over runtime \p Runtime. Reused
/// across transactions; the read/write sets keep their capacity between
/// runs. Not thread-safe: one descriptor per worker thread. The retry
/// loop (`run`) comes from the shared engine-family executor
/// (engine/TxnExecutor.h).
///
/// The read path, write buffer, validation, commit sequence and abort
/// attribution are written once here. Every runtime keeps its orecs in
/// one LockTable (`lockTable()`), and a lock key is a stripe index in it;
/// the runtime owns how addresses map onto that table and answers the
/// layout questions through inline hooks. L is the descriptor's
/// `Runtime::TxnState` base, where a layout keeps per-descriptor state:
///
///   beginRv(L)            read version of a new attempt
///   readStripe(L, Addr)   stripe guarding a transactional read
///   writeKey(L, Addr)     lock key of a written address; ascending keys
///                         are the global acquisition order
///   prepareSpinLimit(L)   waits on a held stripe before aborting
///   groupOf(Key)          publish group: each group records in
///                         commitRingOf(Group), publishes its stripes,
///                         then calls groupPublished(Group, wv)
///   versionAbortRing(L, Stripe)  ring attributing a too-new version
///   committed(L, Thread, Stats) / aborted(L, Stats)  outcome bookkeeping
///
/// On Tl2Stm every hook is a constant or a single table access, so the
/// flat instantiation compiles to plain TL2.
template <typename Runtime>
class Tl2Descriptor : public TxnExecutor<Tl2Descriptor<Runtime>>,
                      public Runtime::TxnState {
public:
  Tl2Descriptor(Runtime &Stm, ThreadId Thread)
      : TxnExecutor<Tl2Descriptor>(Thread), Runtime::TxnState(Stm, Thread),
        S(Stm), Thread(Thread), Stats(&Stm.stats().shard(Thread)) {}

  Tl2Descriptor(const Tl2Descriptor &) = delete;
  Tl2Descriptor &operator=(const Tl2Descriptor &) = delete;

  /// Transactional read of a raw 64-bit word.
  uint64_t loadWord(const std::atomic<uint64_t> &Word);

  /// Transactional (buffered) write of a raw 64-bit word.
  void storeWord(std::atomic<uint64_t> &Word, uint64_t Value);

  /// Typed transactional read of a TVar.
  template <typename T> T load(const TVar<T> &Var) {
    return TVar<T>::decode(loadWord(Var.word()));
  }

  /// Typed transactional write of a TVar. The value type is non-deduced
  /// so integer literals convert to the variable's type.
  template <typename T>
  void store(TVar<T> &Var, std::type_identity_t<T> Value) {
    storeWord(Var.word(), TVar<T>::encode(Value));
  }

  /// Explicitly aborts and retries the current transaction attempt.
  [[noreturn]] void retryAbort();

  ThreadId threadId() const { return Thread; }
  TxId txId() const { return CurrentTx; }

  /// Read version of the attempt in flight (exposed for tests).
  uint64_t readVersion() const { return Rv; }
  size_t readSetSize() const { return ReadSet.size(); }
  size_t writeSetSize() const { return WriteLog.size(); }

private:
  friend class TxnExecutor<Tl2Descriptor>;

  struct WriteEntry {
    std::atomic<uint64_t> *Addr;
    uint64_t Value;
  };
  struct AcquiredLock {
    uint64_t Key;
    uint64_t PreviousWord;
  };

  /// Executor contract (engine/TxnExecutor.h).
  Runtime &stm() { return S; }
  StatsShard *shard() { return Stats; }

  void begin(TxId Tx);
  /// Commits the attempt or reports the abort cause and throws.
  void commitOrThrow(uint32_t PriorAborts);
  /// Commit-time read-set revalidation: every read stripe must still be
  /// unlocked (or self-locked at a pre-lock version <= rv) and at a
  /// version <= rv. Throws on conflict. A branch-free OR-reduction pass
  /// clears the common all-clean case without a single conditional; only
  /// a suspicious read set pays the per-stripe attribution walk.
  void validateReadSet(TxThreadPair Self);

  /// Reports an abort caused by a known conflicting committer and throws;
  /// \p Site tags where in the attempt the conflict surfaced.
  [[noreturn]] void abortOnOwner(TxThreadPair Owner, AbortSite Site);
  /// Reports an abort caused by a too-new version of \p Stripe and
  /// throws; attribution goes through the stripe's commit ring.
  [[noreturn]] void abortOnVersion(uint64_t Version,
                                   const std::atomic<uint64_t> *Stripe,
                                   AbortSite Site);
  [[noreturn]] void reportAbortAndThrow(const AbortEvent &E);

  /// Locations this attempt opened (contention-manager currency): logged
  /// reads plus buffered writes.
  uint64_t opensCount() const { return ReadSet.size() + WriteLog.size(); }

  void releaseAcquiredLocks();
  /// Pre-lock word of a stripe this commit already locked (stripe must be
  /// in Acquired).
  uint64_t preLockWordFor(const std::atomic<uint64_t> *Stripe) const;

  /// Returns true and fills \p Value when \p Addr is in the write set.
  bool lookupWriteSet(const std::atomic<uint64_t> *Addr, uint64_t &Value);

  static uint64_t filterSignature(const void *Addr) {
    auto Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
    return uint64_t{1} << ((Key * 0x9e3779b97f4a7c15ULL) >> 58);
  }

  Runtime &S;
  ThreadId Thread;
  /// This thread's telemetry shard, resolved once at construction.
  StatsShard *Stats;
  TxId CurrentTx = 0;
  uint64_t Rv = 0;

  /// Per-attempt logs. MiniVector/PtrIndexMap rather than std::vector /
  /// std::unordered_map: the inline capacities below cover the common
  /// transaction sizes without touching the heap, `clear()` in begin() is
  /// O(1) (a count store / generation bump, not a bucket walk), and any
  /// heap growth a large first attempt does pay is retained across the
  /// retry loop — an attempt after the first never allocates.
  MiniVector<const std::atomic<uint64_t> *, 64> ReadSet;
  MiniVector<WriteEntry, 32> WriteLog;
  PtrIndexMap<uint32_t, 5> WriteIndex;
  uint64_t WriteFilter = 0;
  MiniVector<uint64_t, 32> StripeScratch;
  MiniVector<AcquiredLock, 32> Acquired;
};

/// TL2 over the flat stripe table. Instantiated once, in Tl2.cpp.
using Tl2Txn = Tl2Descriptor<Tl2Stm>;
extern template class Tl2Descriptor<Tl2Stm>;

//===----------------------------------------------------------------------===//
// Tl2Descriptor member definitions. Each runtime's .cpp instantiates them
// explicitly, so the transaction entry points stay out-of-line calls.
//===----------------------------------------------------------------------===//

template <typename Runtime> void Tl2Descriptor<Runtime>::begin(TxId Tx) {
  CurrentTx = Tx;
  Rv = S.beginRv(*this);
  ReadSet.clear();
  WriteLog.clear();
  WriteIndex.clear();
  WriteFilter = 0;
  Acquired.clear();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxBegin(Thread, Tx, Rv);
}

template <typename Runtime>
bool Tl2Descriptor<Runtime>::lookupWriteSet(const std::atomic<uint64_t> *Addr,
                                            uint64_t &Value) {
  if ((WriteFilter & filterSignature(Addr)) == 0)
    return false;
  const uint32_t *Pos = WriteIndex.find(Addr);
  if (!Pos)
    return false;
  Value = WriteLog[*Pos].Value;
  return true;
}

template <typename Runtime>
uint64_t Tl2Descriptor<Runtime>::loadWord(const std::atomic<uint64_t> &Word) {
  this->maybePreempt();
  // Read-after-write: serve buffered values from the write set.
  uint64_t Buffered;
  if (lookupWriteSet(&Word, Buffered)) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, &Word, Buffered, /*Version=*/0,
                  /*Buffered=*/true);
    return Buffered;
  }

  std::atomic<uint64_t> &Stripe = S.readStripe(*this, &Word);
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
    abortOnVersion(PostState.Version, &Stripe, AbortSite::Read);
  }
  if (PreState.Version > Rv)
    abortOnVersion(PreState.Version, &Stripe, AbortSite::Read);

  ReadSet.push_back(&Stripe);
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxLoad(Thread, &Word, Value, PreState.Version,
                /*Buffered=*/false);
  return Value;
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::storeWord(std::atomic<uint64_t> &Word,
                                       uint64_t Value) {
  this->maybePreempt();
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

template <typename Runtime>
void Tl2Descriptor<Runtime>::commitOrThrow(uint32_t PriorAborts) {
  TxThreadPair Self = packPair(CurrentTx, Thread);

  // Read-only transactions: every read was validated against rv when it
  // happened, so the snapshot is consistent and no locks are needed —
  // even when the reads span shards, because a reader publishes nothing.
  if (WriteLog.empty()) {
    Stats->recordCommit(PriorAborts, /*ReadOnly=*/true);
    S.committed(*this, Thread, *Stats);
    if (TxEventObserver *Obs = S.observer())
      Obs->onCommit(CommitEvent{Thread, CurrentTx, /*Version=*/0,
                                PriorAborts, /*ReadOnly=*/true});
    return;
  }

  // Prepare: acquire the write-set stripe locks in ascending key order.
  // Every committer acquires along that one total order, so a wait-for
  // cycle would need some attempt to wait on a key below one it holds,
  // which never happens. Where the runtime allows no waiting (the flat
  // table, single-shard commits) a held stripe aborts at once and
  // contention surfaces as read-time / validation aborts; a cross-shard
  // prepare spins a bounded wait first, because aborting it forfeits
  // more invested work, and the bound keeps a descheduled holder from
  // stalling it. Each spin counts as a PrepareRetry.
  StripeScratch.clear();
  for (const WriteEntry &E : WriteLog)
    StripeScratch.push_back(S.writeKey(*this, E.Addr));
  std::sort(StripeScratch.begin(), StripeScratch.end());
  StripeScratch.truncate(static_cast<size_t>(
      std::unique(StripeScratch.begin(), StripeScratch.end()) -
      StripeScratch.begin()));

  const unsigned SpinLimit = S.prepareSpinLimit(*this);
  for (uint64_t Key : StripeScratch) {
    std::atomic<uint64_t> &Stripe = S.lockTable().stripeAt(Key);
    unsigned Spins = 0;
    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked) {
        if (Spins >= SpinLimit)
          abortOnOwner(OldState.Owner, // rollback happens in the report
                       AbortSite::LockAcquire);
        ++Spins;
        Stats->recordPrepareRetry();
        std::this_thread::yield();
        Old = Stripe.load(std::memory_order_relaxed);
        continue;
      }
      if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        break;
    }
    Acquired.push_back(AcquiredLock{Key, Old});
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(Thread, Key);
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
  // store-buffering — two cyclically conflicting committers (on one table
  // or across shards) each miss the other's freshly taken lock, both
  // validate clean, and both commit a lost update (real on POWER;
  // invisible on x86/ARMv8, so check_fuzz cannot catch it).
  // stm-order: fence(seq_cst) before(validateReadSet) label(Tl2Descriptor::commitOrThrow single-fence commit)
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Validation is UNCONDITIONAL. Stock TL2's `wv == rv+1` elision
  // reasons "no commit interleaved between my rv sample and my clock
  // advance"; with the advance after writeback, two cyclically
  // conflicting writers could both observe a quiescent clock, both skip
  // validation, and both commit a lost update — and on the sharded tier
  // rv may be a lagging applied-clock sample. The branch-free fast pass
  // keeps the check cheap. (Fault.SkipReadValidation is the self-test
  // mutant that omits revalidation entirely; see Tl2FaultInjection.)
  const Tl2FaultInjection &Fault = S.config().Fault;
  if (!Fault.SkipReadValidation)
    validateReadSet(Self);

  // The torn-publish self-test mutant defers the writeback until after
  // the version publish below.
  const bool Torn = Fault.TornVersionPublish;
  if (!Torn)
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);

  // One fence orders the writeback before every version publish: a
  // reader whose acquire load of a stripe observes one of the relaxed
  // stores below synchronizes with this fence ([atomics.fences]) and
  // therefore sees the new data — on every shard the commit touched,
  // since all its stripes stay locked until their own publish store.
  std::atomic_thread_fence(std::memory_order_release);

  uint64_t Wv = S.clock().advance();
  // Publish, groups ascending: attribution first, so a victim observing
  // wv can already resolve the committer, then the group's stripes at
  // wv, then the runtime's per-group follow-up (the sharded tier raises
  // the shard's applied clock, which must only move after the publishes).
  for (size_t I = 0; I < Acquired.size();) {
    const size_t Group = S.groupOf(Acquired[I].Key);
    S.commitRingOf(Group).record(Wv, Self);
    size_t J = I;
    for (; J < Acquired.size() && S.groupOf(Acquired[J].Key) == Group; ++J)
      S.lockTable()
          .stripeAt(Acquired[J].Key)
          .store(LockTable::encodeVersion(Wv), std::memory_order_relaxed);
    S.groupPublished(Group, Wv);
    I = J;
  }
  Acquired.clear();

  if (Torn) {
    // Self-test mutant: the locks are already released at wv; yield to
    // widen the window in which readers validate new-version stripes
    // over old data, then write the data back.
    std::this_thread::yield();
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);
  }

  Stats->recordCommit(PriorAborts, /*ReadOnly=*/false);
  S.committed(*this, Thread, *Stats);
  if (TxEventObserver *Obs = S.observer())
    Obs->onCommit(CommitEvent{Thread, CurrentTx, Wv, PriorAborts,
                              /*ReadOnly=*/false});
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::validateReadSet(TxThreadPair Self) {
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
        abortOnVersion(PreLockState.Version, Stripe,
                       AbortSite::CommitValidate);
      continue;
    }
    if (State.Version > Rv)
      abortOnVersion(State.Version, Stripe, AbortSite::CommitValidate);
  }
}

template <typename Runtime>
uint64_t Tl2Descriptor<Runtime>::preLockWordFor(
    const std::atomic<uint64_t> *Stripe) const {
  // Acquired is sorted by lock key, i.e. by stripe index.
  const uint64_t Key = S.lockTable().indexOf(Stripe);
  auto It = std::lower_bound(
      Acquired.begin(), Acquired.end(), Key,
      [](const AcquiredLock &L, uint64_t K) { return L.Key < K; });
  assert(It != Acquired.end() && It->Key == Key &&
         "self-locked stripe missing from the acquired list");
  return It->PreviousWord;
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::releaseAcquiredLocks() {
  // Restore the pre-lock words so the stripes revert to their old
  // versions; nothing was written back yet.
  for (auto It = Acquired.rbegin(); It != Acquired.rend(); ++It)
    S.lockTable().stripeAt(It->Key).store(It->PreviousWord,
                                          std::memory_order_release);
  Acquired.clear();
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::abortOnOwner(TxThreadPair Owner,
                                          AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::KnownCommitter, Owner,
                                 /*CauseVersion=*/0, Site});
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::abortOnVersion(
    uint64_t Version, const std::atomic<uint64_t> *Stripe, AbortSite Site) {
  TxThreadPair Committer;
  bool Hit = S.versionAbortRing(*this, Stripe).lookup(Version, Committer);
  Stats->recordCommitRingLookup(Hit);
  if (Hit)
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter, Committer,
                                   Version, Site});
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter,
                                 /*Cause=*/0, Version, Site});
}

template <typename Runtime> void Tl2Descriptor<Runtime>::retryAbort() {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx, AbortCauseKind::Explicit,
                                 /*Cause=*/0, /*CauseVersion=*/0,
                                 AbortSite::Explicit});
}

template <typename Runtime>
void Tl2Descriptor<Runtime>::reportAbortAndThrow(const AbortEvent &E) {
  this->LastOpens = opensCount();
  // Commit-time aborts may hold stripes: restore their pre-lock words.
  // (Body-time aborts hold none; the call is a no-op then.)
  releaseAcquiredLocks();
  this->LastEnemyKnown = E.Kind == AbortCauseKind::KnownCommitter;
  this->LastEnemy = this->LastEnemyKnown ? E.Cause : 0;
  Stats->recordAbort(E.Kind, E.Site);
  S.aborted(*this, *Stats);
  if (TxEventObserver *Obs = S.observer())
    Obs->onAbort(E);
  throw TxAbortException{};
}

} // namespace gstm

#endif // GSTM_STM_TL2_H
