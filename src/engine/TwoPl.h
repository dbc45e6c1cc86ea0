//===- engine/TwoPl.h - Two-phase-locking undo-log engine ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 2PL-undo policy: strict two-phase locking over the TL2 stripe
/// table with *exclusive* encounter-time locks for reads AND writes.
/// Nothing is optimistic — there is no read set and no validation,
/// anywhere: once a stripe is held, neither its version nor any word
/// under it can change until we release it, so everything the attempt
/// observed stays true by construction. Writes go in place with the
/// chassis undo log holding displaced values. Deadlock is impossible
/// because a transaction never waits for a lock: a held stripe (or one
/// versioned past rv) means immediate self-abort and retry — no
/// hold-and-wait, hence no cycle (the 2PLSF lineage's "no-wait" flavor).
///
/// Commit stamps stripes that were actually written with a fresh clock
/// version; stripes held only for reading are restored to their
/// pre-lock word, so a pure reader leaves no version trace (and its
/// reads report the pre-lock version <= rv, keeping the checkers'
/// invariant model intact). Read-your-own-write granularity note: lock
/// words are stripe-granular but buffered-ness is *address*-granular —
/// a read of an address this attempt wrote reports Buffered (the value
/// is uncommitted), while a clean address that merely aliases into a
/// held stripe reports the stripe's pre-lock version.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TWOPL_H
#define GSTM_ENGINE_TWOPL_H

#include "engine/Core.h"

#include <atomic>
#include <cassert>

namespace gstm {

struct TwoPlPolicy {
  using Table = LockTable;
  static constexpr const char *Name = "2pl-undo";
  static constexpr unsigned DefaultTableBits = 20;

  /// A stripe this attempt holds exclusively. Dirty marks stripes with
  /// at least one in-place write (they get the new version at commit;
  /// clean ones get their pre-lock word back).
  struct Held {
    size_t StripeIndex;
    uint64_t PreviousWord;
    bool Dirty;
  };

  struct TxnState {
    MiniVector<Held, 64> HeldLocks;
    /// stripe word address -> index into HeldLocks, so re-touching a
    /// held stripe is O(1) instead of a scan.
    PtrIndexMap<uint32_t, 6> HeldIndex;
    /// Addresses this attempt wrote (bloom filter + exact map): decides
    /// Buffered-ness of read-own-write, per address not per stripe.
    PtrIndexMap<uint32_t, 6> WrittenIndex;
    uint64_t WrittenFilter = 0;

    void clear() {
      HeldLocks.clear();
      HeldIndex.clear();
      WrittenIndex.clear();
      WrittenFilter = 0;
    }
    size_t opens() const { return HeldLocks.size(); }
  };

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    TxnState &St = Tx.state();
    const Held &H = acquire(Tx, &Word);
    // We hold the stripe exclusively: the word is stable, and our own
    // CAS acquire synchronized with the previous committer's release.
    uint64_t Value = Word.load(std::memory_order_relaxed);
    if ((St.WrittenFilter & filterSignature(&Word)) != 0 &&
        St.WrittenIndex.find(&Word)) {
      Tx.noteLoad(&Word, Value, /*Version=*/0, /*Buffered=*/true);
    } else {
      Tx.noteLoad(&Word, Value, LockTable::decode(H.PreviousWord).Version,
                  /*Buffered=*/false);
    }
    return Value;
  }

  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    TxnState &St = Tx.state();
    Held &H = acquire(Tx, &Word);
    H.Dirty = true;
    Tx.noteStore(&Word, Value);
    uint64_t Sig = filterSignature(&Word);
    if ((St.WrittenFilter & Sig) == 0 || !St.WrittenIndex.find(&Word)) {
      St.WrittenFilter |= Sig;
      St.WrittenIndex.insert(&Word, 1);
    }
    Tx.undoLog().emplace_back(&Word,
                              Word.load(std::memory_order_relaxed));
    Word.store(Value, std::memory_order_release);
  }

  /// No validation (see file comment). Written stripes get the new
  /// version; read-only stripes get their pre-lock word back.
  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();

    if (Tx.undoLog().empty()) {
      for (auto It = St.HeldLocks.rbegin(); It != St.HeldLocks.rend();
           ++It)
        S.lockTable().stripeAt(It->StripeIndex)
            .store(It->PreviousWord, std::memory_order_release);
      St.HeldLocks.clear();
      St.HeldIndex.clear();
      return 0;
    }

    uint64_t Wv = S.clock().advance();
    S.commitRing().record(Wv, Tx.self());
    for (const Held &H : St.HeldLocks)
      // A reader acquiring the released stripe synchronizes with this
      // release store and therefore sees our in-place data.
      S.lockTable().stripeAt(H.StripeIndex)
          .store(H.Dirty ? LockTable::encodeVersion(Wv) : H.PreviousWord,
                 std::memory_order_release);
    St.HeldLocks.clear();
    St.HeldIndex.clear();
    Tx.undoLog().clear();
    return Wv;
  }

  /// Abort rollback: replay undo while the stripes are still held, then
  /// restore every pre-lock word.
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    Tx.undoWrites();
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    for (auto It = St.HeldLocks.rbegin(); It != St.HeldLocks.rend(); ++It)
      S.lockTable().stripeAt(It->StripeIndex)
          .store(It->PreviousWord, std::memory_order_release);
    St.HeldLocks.clear();
    St.HeldIndex.clear();
    St.WrittenIndex.clear();
    St.WrittenFilter = 0;
  }

private:
  /// Ensures the stripe covering \p Addr is held, acquiring it no-wait
  /// (held-by-other or version past rv = immediate abort). Returns the
  /// Held entry; the reference stays valid for the duration of the call
  /// chain (HeldLocks only grows within an attempt).
  template <typename TxnT>
  static Held &acquire(TxnT &Tx,
                       const std::atomic<uint64_t> *Addr) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    std::atomic<uint64_t> &Stripe =
        S.lockTable().stripeFor(Addr);
    if (const uint32_t *Pos = St.HeldIndex.find(&Stripe))
      return St.HeldLocks[*Pos];

    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      // Not in HeldIndex, so a locked stripe is someone else's: no-wait
      // self-abort, never block (deadlock freedom).
      if (OldState.Locked)
        Tx.abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
      if (OldState.Version > Tx.rv())
        Tx.abortOnVersion(OldState.Version, &Stripe,
                          AbortSite::LockAcquire);
      if (Stripe.compare_exchange_weak(Old,
                                       LockTable::encodeLocked(Tx.self()),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        break;
    }
    size_t Index = S.lockTable().indexFor(Addr);
    St.HeldIndex.insert(&Stripe,
                        static_cast<uint32_t>(St.HeldLocks.size()));
    St.HeldLocks.push_back(Held{Index, Old, /*Dirty=*/false});
    Tx.noteLockAcquire(Index);
    return St.HeldLocks.back();
  }
};

/// Engine-family aliases; TwoPlTxn is a transactional context for
/// stm_lint.
using TwoPlStm = EngineStm<TwoPlPolicy>;
using TwoPlTxn = EngineTxn<TwoPlPolicy>;

} // namespace gstm

#endif // GSTM_ENGINE_TWOPL_H
