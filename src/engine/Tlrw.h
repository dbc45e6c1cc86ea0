//===- engine/Tlrw.h - TLRW-style visible-reader bytelock engine ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TLRW policy (Dice & Shavit SPAA'10; zardoshti `tlrw_eager.h`
/// lineage): pessimistic read/write locking over ByteLock entries
/// (engine/ByteLock.h). A reader publishes itself by setting its per
/// thread byte before reading and keeps it set until the transaction
/// ends; a writer claims the exclusive Owner word at encounter time,
/// spin-drains every other reader byte (bounded; timeout = self-abort),
/// and then writes in place with the chassis undo log holding displaced
/// values. Because every read is protected by a held byte for the rest
/// of the attempt, nothing a live transaction observed can change under
/// it — so commit has NO read validation at all; it just stamps held
/// entries with a fresh clock version and releases everything.
///
/// Checker compatibility: unlike stock TLRW, entries keep a version word
/// published from the shared VersionClock, readers sample rv at begin
/// and refuse entries newer than rv (conservative — a stock TLRW reader
/// would block or wait — but it keeps every execution inside the
/// invariant/opacity model the harness checks for all engines, and the
/// engine stays honestly pessimistic: no validation, visible readers,
/// writer-drains-readers).
///
/// Safety argument for undo-on-abort (DESIGN.md §4i): a writer's
/// in-place values sit behind the Owner word; readers that arrive abort
/// on seeing Owner, and readers that were already there are exactly what
/// the drain waited out — so only the owning transaction can observe its
/// own dirty values. Abort replays the undo log *before* dropping Owner.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TLRW_H
#define GSTM_ENGINE_TLRW_H

#include "engine/Core.h"

#include <atomic>
#include <cassert>
#include <thread>

namespace gstm {

struct TlrwPolicy {
  using Table = ByteLockTable;
  static constexpr const char *Name = "tlrw";
  /// ByteLock entries are 16x a stripe word, so default 16 bits
  /// (8 MiB table) where the orec engines default to 20.
  static constexpr unsigned DefaultTableBits = 16;
  /// Spin iterations a writer waits for one reader byte to drain before
  /// giving up and aborting itself; bounds the blocking a visible-reader
  /// engine can do while holding a write lock, so cross-held
  /// reader/writer cycles resolve by abort, not deadlock.
  static constexpr unsigned DrainSpinBound = 128;

  struct TxnState {
    /// Entries where this attempt's reader byte is set.
    MiniVector<ByteLock *, 64> ReadHeld;
    /// Entries where this attempt holds the exclusive Owner word.
    MiniVector<ByteLock *, 32> WriteHeld;

    void clear() {
      ReadHeld.clear();
      WriteHeld.clear();
    }
    size_t opens() const { return ReadHeld.size(); }
  };

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    auto &S = Tx.rt();
    ByteLock &L = S.lockTable().lockFor(&Word);
    const TxThreadPair SelfPacked = Tx.self();
    const uint64_t SelfOwner = LockTable::encodeLocked(SelfPacked);
    const ThreadId T = Tx.threadId();
    assert(T < ByteLock::MaxReaderSlots && "thread id exceeds reader slots");

    // Read-own-write: an entry we write-own is ours alone; the word may
    // carry our uncommitted in-place value, so report it buffered.
    if (L.Owner.load(std::memory_order_acquire) == SelfOwner) {
      uint64_t Own = Word.load(std::memory_order_relaxed);
      Tx.noteLoad(&Word, Own, /*Version=*/0, /*Buffered=*/true);
      return Own;
    }

    if (L.Readers[T].load(std::memory_order_relaxed) == 0) {
      // First touch: publish the reader byte, then check for a writer —
      // the Dekker handshake with the writer's CAS-then-scan (both
      // sides seq_cst; see ByteLock.h).
      L.Readers[T].store(1, std::memory_order_seq_cst);
      uint64_t OwnerW = L.Owner.load(std::memory_order_seq_cst);
      if (OwnerW != 0) {
        L.Readers[T].store(0, std::memory_order_release);
        Tx.abortOnOwner(LockTable::decode(OwnerW).Owner, AbortSite::Read);
      }
      uint64_t V = L.Version.load(std::memory_order_acquire);
      if (V > Tx.rv()) {
        L.Readers[T].store(0, std::memory_order_release);
        Tx.abortOnVersion(V, &L.Version, AbortSite::Read);
      }
      Tx.state().ReadHeld.push_back(&L);
      uint64_t Value = Word.load(std::memory_order_acquire);
      Tx.noteLoad(&Word, Value, V, /*Buffered=*/false);
      return Value;
    }

    // Re-read under a byte we already hold: no writer can have drained
    // us, so the entry's version (validated <= rv at first touch) and
    // every word under it are stable.
    // stm-lint: allow(O2) our held reader byte excludes writers, so this
    // Version cannot change concurrently — the relaxed re-read observes
    // the same value the first-touch acquire load already synchronized
    // with, and the hot read path skips an unneeded acquire.
    uint64_t V = L.Version.load(std::memory_order_relaxed);
    uint64_t Value = Word.load(std::memory_order_relaxed);
    Tx.noteLoad(&Word, Value, V, /*Buffered=*/false);
    return Value;
  }

  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    auto &S = Tx.rt();
    ByteLock &L = S.lockTable().lockFor(&Word);
    const uint64_t SelfOwner = LockTable::encodeLocked(Tx.self());
    const ThreadId T = Tx.threadId();

    uint64_t OwnerW = L.Owner.load(std::memory_order_relaxed);
    if (OwnerW != SelfOwner) {
      if (OwnerW != 0)
        Tx.abortOnOwner(LockTable::decode(OwnerW).Owner,
                        AbortSite::LockAcquire);
      uint64_t V = L.Version.load(std::memory_order_acquire);
      if (V > Tx.rv())
        Tx.abortOnVersion(V, &L.Version, AbortSite::LockAcquire);
      uint64_t Expected = 0;
      if (!L.Owner.compare_exchange_strong(Expected, SelfOwner,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed))
        Tx.abortOnOwner(LockTable::decode(Expected).Owner,
                        AbortSite::LockAcquire);
      // Version is stable now that we own the entry; re-check in case a
      // commit slid in between the load above and the CAS.
      V = L.Version.load(std::memory_order_acquire);
      if (V > Tx.rv()) {
        L.Owner.store(0, std::memory_order_release);
        Tx.abortOnVersion(V, &L.Version, AbortSite::LockAcquire);
      }
      // Drain every *other* reader byte before touching data: visible
      // readers are the engine's whole safety story. Bounded spin —
      // a reader keeps its byte for its entire attempt, so give up and
      // self-abort past the bound rather than block unboundedly (the
      // bytes carry no identity, hence abortUnknown). The
      // SkipReaderDrain mutant omits exactly this loop.
      if (!S.config().Fault.SkipReaderDrain) {
        for (size_t Slot = 0; Slot < ByteLock::MaxReaderSlots; ++Slot) {
          if (Slot == T)
            continue;
          unsigned Spins = 0;
          while (L.Readers[Slot].load(std::memory_order_seq_cst) != 0) {
            if (++Spins > DrainSpinBound) {
              L.Owner.store(0, std::memory_order_release);
              Tx.abortUnknown(AbortSite::LockAcquire);
            }
            if ((Spins & 7) == 0)
              std::this_thread::yield();
          }
        }
      }
      Tx.state().WriteHeld.push_back(&L);
      Tx.noteLockAcquire(S.lockTable().indexFor(&Word));
    }

    Tx.noteStore(&Word, Value);
    Tx.undoLog().emplace_back(&Word,
                              Word.load(std::memory_order_relaxed));
    Word.store(Value, std::memory_order_release);
  }

  /// No validation: every read is still protected by a held byte, every
  /// write by the Owner word. Stamp written entries with a fresh version
  /// and release everything.
  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    const ThreadId T = Tx.threadId();

    if (St.WriteHeld.empty()) {
      for (ByteLock *L : St.ReadHeld)
        L->Readers[T].store(0, std::memory_order_release);
      St.ReadHeld.clear();
      return 0;
    }

    uint64_t Wv = S.clock().advance();
    S.commitRing().record(Wv, Tx.self());
    for (ByteLock *L : St.WriteHeld) {
      // Release stores: a reader whose acquire load sees Version == Wv
      // (or Owner == 0) synchronizes with us and sees the in-place data.
      L->Version.store(Wv, std::memory_order_release);
      L->Owner.store(0, std::memory_order_release);
    }
    St.WriteHeld.clear();
    for (ByteLock *L : St.ReadHeld)
      L->Readers[T].store(0, std::memory_order_release);
    St.ReadHeld.clear();
    Tx.undoLog().clear();
    return Wv;
  }

  /// Abort rollback: undo the in-place writes while Owner is still held,
  /// then drop the write locks (versions untouched — nothing committed)
  /// and clear the reader bytes.
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    Tx.undoWrites();
    TxnState &St = Tx.state();
    const ThreadId T = Tx.threadId();
    for (auto It = St.WriteHeld.rbegin(); It != St.WriteHeld.rend(); ++It)
      (*It)->Owner.store(0, std::memory_order_release);
    St.WriteHeld.clear();
    for (ByteLock *L : St.ReadHeld)
      L->Readers[T].store(0, std::memory_order_release);
    St.ReadHeld.clear();
  }
};

/// Engine-family aliases; TlrwTxn is a transactional context for
/// stm_lint.
using TlrwStm = EngineStm<TlrwPolicy>;
using TlrwTxn = EngineTxn<TlrwPolicy>;

} // namespace gstm

#endif // GSTM_ENGINE_TLRW_H
