//===- engine/OrecEager.h - Orec-based eager undo-log engine -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orec-eager policy (zardoshti `stm_algs/orec_eager.h` lineage):
/// invisible optimistic reads against TL2-style ownership records, but
/// writes acquire the orec at *encounter time* and go in place, with the
/// chassis undo log holding the displaced values. Commit therefore has no
/// writeback — it revalidates the read set (reads are invisible, so a
/// commit that landed after one of our reads must be caught here),
/// stamps a new version from the shared clock, and releases the held
/// orecs at that version.
///
/// Safety argument (the undo-on-abort visibility story, DESIGN.md §4i):
/// an in-place write is only visible through a word whose orec we hold
/// exclusively (a word's guard is the word itself, or its TObj's Meta,
/// whose one orec covers all the object's words, as in Tl2Policy). The
/// runtime's readStripe/writeKey hooks pick the orec, so the policy sees
/// the same layout as TL2 on the same runtime: a table stripe for a
/// word, the Meta word itself for an object on EngineStm.
/// Readers who hit the orec abort (or, pre-lock, validated
/// a version <= their rv taken *before* our acquisition); so uncommitted
/// values can only be observed by their own transaction. On abort the
/// chassis replays the undo log *before* the orecs are released
/// (onAbortCleanup order below) — by the time any other thread can get
/// past the orec, the old values are back and the orec still carries its
/// pre-lock version.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_ORECEAGER_H
#define GSTM_ENGINE_ORECEAGER_H

#include "engine/Core.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace gstm {

struct OrecEagerPolicy {
  static constexpr const char *Name = "orec-eager";

  /// An orec this attempt locked at encounter time, with its pre-lock
  /// word for release-on-abort and self-read validation.
  struct Held {
    uint64_t Key;
    uint64_t PreviousWord;
  };

  struct TxnState {
    /// Orecs of invisible reads, revalidated at commit.
    MiniVector<const std::atomic<uint64_t> *, 64> ReadSet;
    /// Encounter-time write locks; sorted by lock key at commit so the
    /// validation slow pass can binary-search self-held orecs.
    MiniVector<Held, 32> Acquired;

    void clear() {
      ReadSet.clear();
      Acquired.clear();
    }
  };

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    uint64_t Value;
    loadWords<1>(Tx, Word, &Word, &Value);
    return Value;
  }

  /// Snapshot of the \p N words at \p Words under the orec of \p Guard,
  /// loaded before and after the copy as in Tl2Policy::loadWords. The
  /// observer sees the guard and word 0.
  template <size_t N, typename TxnT>
  static void loadWords(TxnT &Tx, const std::atomic<uint64_t> &Guard,
                        const std::atomic<uint64_t> *Words, uint64_t *Out) {
    std::atomic<uint64_t> &Stripe =
        Tx.rt().readStripe(Tx, Guard, /*Object=*/&Guard != Words);
    uint64_t Pre = Stripe.load(std::memory_order_acquire);
    StripeState PreState = LockTable::decode(Pre);
    if (PreState.Locked) {
      // A self-held orec is safe to read through directly: its version
      // was validated against rv at acquisition and nobody else can
      // touch it. Reported as buffered — the value may be our own
      // uncommitted in-place write.
      if (PreState.Owner == Tx.self()) {
        for (size_t I = 0; I < N; ++I)
          Out[I] = Words[I].load(std::memory_order_relaxed);
        Tx.noteLoad(&Guard, Out[0], /*Version=*/0, /*Buffered=*/true);
        return;
      }
      Tx.abortOnOwner(PreState.Owner, AbortSite::Read);
    }

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

    Tx.state().ReadSet.push_back(&Stripe);
    Tx.noteLoad(&Guard, Out[0], PreState.Version, /*Buffered=*/false);
  }

  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    storeWords<1>(Tx, Word, &Word, &Value);
  }

  /// Writes the \p N words at \p Words in place under \p Guard's orec,
  /// acquired at encounter time; each displaced word goes to the undo
  /// log.
  template <size_t N, typename TxnT>
  static void storeWords(TxnT &Tx, const std::atomic<uint64_t> &Guard,
                         std::atomic<uint64_t> *Words, const uint64_t *In) {
    auto &S = Tx.rt();
    TxThreadPair Self = Tx.self();
    const uint64_t Key = S.writeKey(Tx, Guard, /*Object=*/&Guard != Words);
    std::atomic<uint64_t> &Stripe = S.lockTable().stripeAt(Key);
    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked) {
        if (OldState.Owner == Self)
          break; // orec already ours from an earlier write
        Tx.abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
      }
      // Acquiring an orec newer than our snapshot would let the attempt
      // mix pre- and post-conflict state; abort instead.
      if (OldState.Version > Tx.rv())
        Tx.abortOnVersion(OldState.Version, &Stripe,
                          AbortSite::LockAcquire);
      if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        Tx.state().Acquired.push_back(Held{Key, Old});
        Tx.noteLockAcquire(Key);
        break;
      }
    }
    Tx.noteStore(&Guard, In[0]);
    for (size_t I = 0; I < N; ++I) {
      Tx.undoLog().emplace_back(&Words[I],
                                Words[I].load(std::memory_order_relaxed));
      Words[I].store(In[I], std::memory_order_release);
    }
  }

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();

    // Read-only: every read was validated against rv when it happened,
    // so the snapshot is consistent and nothing needs publishing.
    if (St.Acquired.empty())
      return 0;

    // validate's slow pass binary-searches Acquired by lock key;
    // encounter-time acquisition happens in program order, so normalize.
    std::sort(St.Acquired.begin(), St.Acquired.end(),
              [](const Held &A, const Held &B) { return A.Key < B.Key; });

    // Single-fence ordering (the TL2 lineage's SINGLEFENCEOPT): the
    // seq_cst fence globally orders our encounter-time orec CASes before
    // the validation loads — without it, store-buffering lets two
    // cyclically conflicting writers each miss the other's lock and both
    // commit (see the matching fence in Tl2Policy). It is also the release
    // fence for the in-place writes, which all precede it, so the relaxed
    // version publishes below need no second fence. Validation is
    // unconditional: the wv==rv+1 elision reasons about the clock advance
    // sitting between acquisition and validation, and this ordering
    // moves the advance after it.
    // stm-order: fence(seq_cst) before(validate) label(OrecEagerPolicy::commit single-fence commit)
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!S.config().Fault.SkipReadValidation)
      validate(Tx);
    uint64_t Wv = S.clock().advance();
    // Publish attribution before the new version becomes visible so a
    // victim observing Wv can already resolve the committer.
    S.commitRing().record(Wv, Tx.self());
    for (const Held &L : St.Acquired)
      S.lockTable().stripeAt(L.Key).store(LockTable::encodeVersion(Wv),
                                          std::memory_order_relaxed);
    St.Acquired.clear();
    Tx.undoLog().clear();
    return Wv;
  }

  /// Abort rollback: replay the undo log while the orecs are still held
  /// (so nobody can observe the dirty values going away), then restore
  /// the pre-lock orec words.
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    Tx.undoWrites();
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    for (auto It = St.Acquired.rbegin(); It != St.Acquired.rend(); ++It)
      S.lockTable().stripeAt(It->Key)
          .store(It->PreviousWord, std::memory_order_release);
    St.Acquired.clear();
  }

private:
  /// Commit-time read-set revalidation, structured exactly like
  /// Tl2Policy::validateReadSet: a branch-free OR-reduction fast pass, and
  /// an attribution slow pass only when something is locked or too new.
  /// Self-held orecs validate against their pre-lock word.
  template <typename TxnT> static void validate(TxnT &Tx) {
    TxnState &St = Tx.state();
    const std::atomic<uint64_t> *const *Stripes = St.ReadSet.data();
    const size_t N = St.ReadSet.size();
    const uint64_t Snapshot = Tx.rv();
    uint64_t Suspicious = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t W = Stripes[I]->load(std::memory_order_acquire);
      Suspicious |=
          (W & 1) | static_cast<uint64_t>((W >> 1) > Snapshot);
    }
    if (Suspicious == 0)
      return;

    auto &S = Tx.rt();
    TxThreadPair Self = Tx.self();
    for (const std::atomic<uint64_t> *Stripe : St.ReadSet) {
      uint64_t Word = Stripe->load(std::memory_order_acquire);
      StripeState State = LockTable::decode(Word);
      if (State.Locked) {
        if (State.Owner != Self)
          Tx.abortOnOwner(State.Owner, AbortSite::CommitValidate);
        const uint64_t Key = S.lockTable().indexOf(Stripe);
        auto It = std::lower_bound(
            St.Acquired.begin(), St.Acquired.end(), Key,
            [](const Held &L, uint64_t K) { return L.Key < K; });
        assert(It != St.Acquired.end() && It->Key == Key &&
               "self-locked orec missing from the acquired list");
        StripeState PreLock = LockTable::decode(It->PreviousWord);
        if (PreLock.Version > Tx.rv())
          Tx.abortOnVersion(PreLock.Version, Stripe,
                            AbortSite::CommitValidate);
        continue;
      }
      if (State.Version > Tx.rv())
        Tx.abortOnVersion(State.Version, Stripe,
                          AbortSite::CommitValidate);
    }
  }
};

/// Engine-family aliases; OrecEagerTxn is a transactional context for
/// stm_lint.
using OrecEagerStm = EngineStm<OrecEagerPolicy>;
using OrecEagerTxn = EngineTxn<OrecEagerPolicy>;

} // namespace gstm

#endif // GSTM_ENGINE_ORECEAGER_H
