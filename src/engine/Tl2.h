//===- engine/Tl2.h - TL2, the redo-log policy of the engine chassis -----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TL2 policy (Dice, Shalev, Shavit, DISC'06): transactions sample a
/// global version clock at start (rv), log transactional reads, buffer
/// transactional writes, and at commit acquire per-stripe versioned
/// locks, validate that no read stripe is newer than rv, write back,
/// advance the clock (wv), and release the locks at version wv. Lazy
/// (commit-time) conflict detection is the configuration the paper
/// evaluates; encounter-time locking with in-place writes is the
/// orec-eager policy (engine/OrecEager.h).
///
/// The policy is written once over its runtime, which owns the orec
/// layout (the 2PLSF TL2's ORECTABLE parameter): Tl2Txn runs it on
/// EngineStm's flat stripe table, ShardedTxn (shard/Sharded.h) on a
/// table partitioned into N shard slices with per-shard commit rings,
/// applied clocks and cross-shard 2PC, and LibTxn (libtm/LibTm.h) on the
/// orec embedded in each object. Every runtime reaches its orecs through
/// one table (`lockTable()`, whose stripeAt/indexOf map a lock key to an
/// orec and back). An access names its guard: a word guards itself, and
/// an object's words are guarded by its Meta word, so one orec covers a
/// multi-word snapshot. Besides the chassis hooks (engine/Core.h), the
/// runtime answers:
///
///   readStripe(L, Guard)  orec guarding a transactional read
///   writeKey(L, Guard)    lock key of a written guard; ascending keys
///                         are the global acquisition order
///   prepareSpinLimit(L)   waits on a held orec before aborting
///   groupOf(Key)          publish group: each group records in
///                         commitRingOf(Group), publishes its orecs,
///                         then calls groupPublished(Group, wv)
///
/// On EngineStm every hook is a constant or a single table access, so
/// the flat instantiation compiles to plain TL2.
///
/// Two paper-specific extensions over stock TL2, both in the chassis:
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

#ifndef GSTM_ENGINE_TL2_H
#define GSTM_ENGINE_TL2_H

#include "engine/Core.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

namespace gstm {

struct Tl2Policy {
  static constexpr const char *Name = "tl2";

  struct WriteEntry {
    std::atomic<uint64_t> *Addr;
    uint64_t Value;
    /// The word whose orec covers Addr (Addr itself, or its object's
    /// Meta).
    const std::atomic<uint64_t> *Guard;
  };
  struct AcquiredLock {
    uint64_t Key;
    uint64_t PreviousWord;
  };

  /// Per-attempt logs. MiniVector/PtrIndexMap rather than std::vector /
  /// std::unordered_map: the inline capacities below cover the common
  /// transaction sizes without touching the heap, `clear()` at begin is
  /// O(1) (a count store / generation bump, not a bucket walk), and any
  /// heap growth a large first attempt does pay is retained across the
  /// retry loop — an attempt after the first never allocates.
  struct TxnState {
    MiniVector<const std::atomic<uint64_t> *, 64> ReadSet;
    MiniVector<WriteEntry, 32> WriteLog;
    PtrIndexMap<uint32_t, 5> WriteIndex;
    uint64_t WriteFilter = 0;
    MiniVector<uint64_t, 32> StripeScratch;
    MiniVector<AcquiredLock, 32> Acquired;

    void clear() {
      ReadSet.clear();
      WriteLog.clear();
      WriteIndex.clear();
      WriteFilter = 0;
      Acquired.clear();
    }
  };

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    uint64_t Value;
    loadWords<1>(Tx, Word, &Word, &Value);
    return Value;
  }

  /// Snapshot of the \p N words at \p Words under the orec of \p Guard:
  /// the orec is loaded before and after the copy, so a snapshot torn by
  /// a concurrent commit shows up as a changed or locked orec word. The
  /// observer sees the guard and word 0.
  template <size_t N, typename TxnT>
  static void loadWords(TxnT &Tx, const std::atomic<uint64_t> &Guard,
                        const std::atomic<uint64_t> *Words, uint64_t *Out) {
    TxnState &St = Tx.state();
    // Read-after-write: serve buffered values from the write set. A
    // buffered object's words are consecutive entries.
    if (const uint32_t *Pos = lookupWriteSet(St, Words)) {
      for (size_t I = 0; I < N; ++I)
        Out[I] = St.WriteLog[*Pos + I].Value;
      Tx.noteLoad(&Guard, Out[0], /*Version=*/0, /*Buffered=*/true);
      return;
    }

    std::atomic<uint64_t> &Stripe = Tx.rt().readStripe(Tx, &Guard);
    uint64_t Pre = Stripe.load(std::memory_order_acquire);
    StripeState PreState = LockTable::decode(Pre);
    // A locked stripe is always someone else's in-flight commit: this
    // descriptor only holds stripes inside commit, after its body
    // finished loading.
    if (PreState.Locked)
      Tx.abortOnOwner(PreState.Owner, AbortSite::Read);

    for (size_t I = 0; I < N; ++I)
      Out[I] = Words[I].load(std::memory_order_acquire);

    uint64_t Post = Stripe.load(std::memory_order_acquire);
    if (Post != Pre) {
      StripeState PostState = LockTable::decode(Post);
      if (PostState.Locked)
        Tx.abortOnOwner(PostState.Owner, AbortSite::Read);
      Tx.abortOnVersion(PostState.Version, &Stripe, AbortSite::Read);
    }
    if (PreState.Version > Tx.rv())
      Tx.abortOnVersion(PreState.Version, &Stripe, AbortSite::Read);

    St.ReadSet.push_back(&Stripe);
    Tx.noteLoad(&Guard, Out[0], PreState.Version, /*Buffered=*/false);
  }

  /// Buffered write: the value goes to the write log until commit.
  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    storeWords<1>(Tx, Word, &Word, &Value);
  }

  /// Buffers all \p N words at \p Words, logged against \p Guard's orec.
  /// An object's words are logged together and indexed by word 0.
  template <size_t N, typename TxnT>
  static void storeWords(TxnT &Tx, const std::atomic<uint64_t> &Guard,
                         std::atomic<uint64_t> *Words, const uint64_t *In) {
    TxnState &St = Tx.state();
    Tx.noteStore(&Guard, In[0]);
    if (const uint32_t *Pos = lookupWriteSet(St, Words)) {
      for (size_t I = 0; I < N; ++I)
        St.WriteLog[*Pos + I].Value = In[I];
      return;
    }
    St.WriteFilter |= filterSignature(Words);
    St.WriteIndex.insert(Words, static_cast<uint32_t>(St.WriteLog.size()));
    for (size_t I = 0; I < N; ++I)
      St.WriteLog.push_back(WriteEntry{&Words[I], In[I], &Guard});
  }

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    const TxThreadPair Self = Tx.self();

    // Read-only transactions: every read was validated against rv when it
    // happened, so the snapshot is consistent and no locks are needed —
    // even when the reads span shards, because a reader publishes nothing.
    if (St.WriteLog.empty())
      return 0;

    // Prepare: acquire the write-set stripe locks in ascending key order.
    // Every committer acquires along that one total order, so a wait-for
    // cycle would need some attempt to wait on a key below one it holds,
    // which never happens. Where the runtime allows no waiting (the flat
    // table, LibTm, single-shard commits) a held stripe aborts at once and
    // contention surfaces as read-time / validation aborts; a cross-shard
    // prepare spins a bounded wait first, because aborting it forfeits
    // more invested work, and the bound keeps a descheduled holder from
    // stalling it. Each spin counts as a PrepareRetry.
    St.StripeScratch.clear();
    for (const WriteEntry &E : St.WriteLog)
      St.StripeScratch.push_back(S.writeKey(Tx, E.Guard));
    std::sort(St.StripeScratch.begin(), St.StripeScratch.end());
    St.StripeScratch.truncate(static_cast<size_t>(
        std::unique(St.StripeScratch.begin(), St.StripeScratch.end()) -
        St.StripeScratch.begin()));

    const unsigned SpinLimit = S.prepareSpinLimit(Tx);
    for (uint64_t Key : St.StripeScratch) {
      std::atomic<uint64_t> &Stripe = S.lockTable().stripeAt(Key);
      unsigned Spins = 0;
      uint64_t Old = Stripe.load(std::memory_order_relaxed);
      for (;;) {
        StripeState OldState = LockTable::decode(Old);
        if (OldState.Locked) {
          if (Spins >= SpinLimit)
            Tx.abortOnOwner(OldState.Owner, // rollback happens in the report
                            AbortSite::LockAcquire);
          ++Spins;
          Tx.notePrepareRetry();
          std::this_thread::yield();
          Old = Stripe.load(std::memory_order_relaxed);
          continue;
        }
        if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
          break;
      }
      St.Acquired.push_back(AcquiredLock{Key, Old});
      Tx.noteLockAcquire(Key);
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
    // stm-order: fence(seq_cst) before(validateReadSet) label(Tl2Policy::commit single-fence commit)
    std::atomic_thread_fence(std::memory_order_seq_cst);

    // Validation is UNCONDITIONAL. Stock TL2's `wv == rv+1` elision
    // reasons "no commit interleaved between my rv sample and my clock
    // advance"; with the advance after writeback, two cyclically
    // conflicting writers could both observe a quiescent clock, both skip
    // validation, and both commit a lost update — and on the sharded tier
    // rv may be a lagging applied-clock sample. The branch-free fast pass
    // keeps the check cheap. (Fault.SkipReadValidation is the self-test
    // mutant that omits revalidation entirely; see EngineFault.)
    const EngineFault &Fault = S.config().Fault;
    if (!Fault.SkipReadValidation)
      validateReadSet(Tx, Self);

    // The torn-publish self-test mutant defers the writeback until after
    // the version publish below.
    const bool Torn = Fault.TornVersionPublish;
    if (!Torn)
      for (const WriteEntry &E : St.WriteLog)
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
    for (size_t I = 0; I < St.Acquired.size();) {
      const size_t Group = S.groupOf(St.Acquired[I].Key);
      S.commitRingOf(Group).record(Wv, Self);
      size_t J = I;
      for (; J < St.Acquired.size() && S.groupOf(St.Acquired[J].Key) == Group;
           ++J)
        S.lockTable()
            .stripeAt(St.Acquired[J].Key)
            .store(LockTable::encodeVersion(Wv), std::memory_order_relaxed);
      S.groupPublished(Group, Wv);
      I = J;
    }
    St.Acquired.clear();

    if (Torn) {
      // Self-test mutant: the locks are already released at wv; yield to
      // widen the window in which readers validate new-version stripes
      // over old data, then write the data back.
      std::this_thread::yield();
      for (const WriteEntry &E : St.WriteLog)
        E.Addr->store(E.Value, std::memory_order_release);
    }
    return Wv;
  }

  /// Abort rollback: restore the pre-lock words of the stripes a commit
  /// had locked, so they revert to their old versions; nothing was
  /// written back yet. (Body-time aborts hold none.)
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    for (auto It = St.Acquired.rbegin(); It != St.Acquired.rend(); ++It)
      S.lockTable().stripeAt(It->Key).store(It->PreviousWord,
                                            std::memory_order_release);
    St.Acquired.clear();
  }

private:
  /// Commit-time read-set revalidation: every read stripe must still be
  /// unlocked (or self-locked at a pre-lock version <= rv) and at a
  /// version <= rv. Throws on conflict. A branch-free OR-reduction pass
  /// clears the common all-clean case without a single conditional; only
  /// a suspicious read set pays the per-stripe attribution walk.
  template <typename TxnT>
  static void validateReadSet(TxnT &Tx, TxThreadPair Self) {
    // Fast pass: a stripe word is suspicious iff it is locked (bit 0) or
    // carries a version newer than rv; both conditions fold into the
    // accumulator without a conditional inside the loop, so the common
    // all-clean case runs as a straight load/or chain the CPU can
    // pipeline.
    TxnState &St = Tx.state();
    const std::atomic<uint64_t> *const *Stripes = St.ReadSet.data();
    const size_t N = St.ReadSet.size();
    const uint64_t Snapshot = Tx.rv();
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
    for (const std::atomic<uint64_t> *Stripe : St.ReadSet) {
      uint64_t Word = Stripe->load(std::memory_order_acquire);
      StripeState State = LockTable::decode(Word);
      if (State.Locked) {
        if (State.Owner != Self)
          Tx.abortOnOwner(State.Owner, AbortSite::CommitValidate);
        uint64_t PreLock = preLockWordFor(Tx, Stripe);
        StripeState PreLockState = LockTable::decode(PreLock);
        if (PreLockState.Version > Tx.rv())
          Tx.abortOnVersion(PreLockState.Version, Stripe,
                            AbortSite::CommitValidate);
        continue;
      }
      if (State.Version > Tx.rv())
        Tx.abortOnVersion(State.Version, Stripe, AbortSite::CommitValidate);
    }
  }

  /// Pre-lock word of a stripe this commit already locked (the stripe
  /// must be in Acquired, which is sorted by lock key, i.e. by stripe
  /// index).
  template <typename TxnT>
  static uint64_t preLockWordFor(TxnT &Tx,
                                 const std::atomic<uint64_t> *Stripe) {
    const MiniVector<AcquiredLock, 32> &Acquired = Tx.state().Acquired;
    const uint64_t Key = Tx.rt().lockTable().indexOf(Stripe);
    auto It = std::lower_bound(
        Acquired.begin(), Acquired.end(), Key,
        [](const AcquiredLock &L, uint64_t K) { return L.Key < K; });
    assert(It != Acquired.end() && It->Key == Key &&
           "self-locked stripe missing from the acquired list");
    return It->PreviousWord;
  }

  /// Write-log position of \p Addr, or null when it is not buffered.
  static const uint32_t *lookupWriteSet(TxnState &St,
                                        const std::atomic<uint64_t> *Addr) {
    if ((St.WriteFilter & filterSignature(Addr)) == 0)
      return nullptr;
    return St.WriteIndex.find(Addr);
  }
};

/// TL2 over the flat stripe table, configured by the chassis's one
/// EngineConfig. Tl2Txn is instantiated once, in Tl2.cpp.
using Tl2Config = EngineConfig;
using Tl2Stm = EngineStm<Tl2Policy>;
using Tl2Txn = EngineTxn<Tl2Policy>;
extern template class EngineTxn<Tl2Policy>;

} // namespace gstm

#endif // GSTM_ENGINE_TL2_H
