//===- engine/Core.h - Policy-templated STM engine chassis ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared chassis of the STM engine family (SNIPPETS.md Snippet 2 /
/// zardoshti lineage). `EngineTxn<Policy, Runtime>` is the per-thread
/// descriptor gluing the retry loop, the shared undo log, begin, typed
/// access, abort attribution and outcome reporting to the policy's
/// algorithm. `Runtime` owns the shared state and the orec layout; it
/// defaults to `EngineStm<Policy>` — version clock, one LockTable of
/// 2^DefaultStripeBits stripes, commit ring, observer/gate/access-
/// observer hooks, sharded stats. TL2 has two more layouts: the sharded
/// tier's ShardedStm (shard/Sharded.h) partitions the table, and LibTm
/// (libtm/LibTm.h) is EngineStm over the orecs inside each object. A
/// policy contributes exactly the algorithm:
///
///   static constexpr const char *Name;
///   struct TxnState { void clear(); ... };
///   static load(TxnT&, Word) -> u64;  // transactional read
///   static store(TxnT&, Word, u64);   // transactional write
///   static loadWords<N>(TxnT&, Guard, Words, Out); // N-word snapshot
///   static storeWords<N>(TxnT&, Guard, Words, In);  // and write, both
///                                     // under Guard's orec (TObj)
///   static commit(TxnT&) -> u64;      // wv, or 0 for read-only
///   static onAbortCleanup(TxnT&);     // undo replay + lock release
///
/// Two policies exist: TL2 (engine/Tl2.h, buffered writes) and
/// orec-eager (engine/OrecEager.h, in place, with the undo log), the
/// paper's lazy-vs-eager pair. Policies never talk to StatsShard or
/// TxEventObserver directly — the chassis owns event reporting, so
/// telemetry, GuideController gating, fault attribution through the
/// CommitRing, and the checker-facing TxAccessObserver hooks behave
/// identically across the whole family.
///
/// The runtime answers the chassis's layout questions through inline
/// hooks taking the descriptor's `Runtime::TxnState` base L, where a
/// layout keeps per-descriptor state (empty on EngineStm):
///
///   beginRv(L)                        read version of a new attempt
///   versionAbortRing(L, Stripe)       ring attributing a too-new version
///   committed(L, Thread, Stats) / aborted(L, Stats)  outcome bookkeeping
///
/// plus those only the TL2 policy asks (engine/Tl2.h lists them).
///
/// All engines keep TL2-compatible version discipline — rv sampled at
/// begin, reads rejected past rv, commits stamped by clock.advance() and
/// published into per-entry version words — so the history checkers
/// (src/check/Checker.h) apply to every policy without weakening. See
/// DESIGN.md §4i.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_CORE_H
#define GSTM_ENGINE_CORE_H

#include "engine/TxnExecutor.h"
#include "stm/CommitRing.h"
#include "stm/LockTable.h"
#include "stm/Observer.h"
#include "stm/StatsShard.h"
#include "stm/TVar.h"
#include "stm/VersionClock.h"
#include "support/Ids.h"
#include "support/MiniVector.h"
#include "support/PtrIndexMap.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

namespace gstm {

/// One-bit address signature for the policies' write-set bloom filters.
inline uint64_t filterSignature(const void *Addr) {
  auto Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
  return uint64_t{1} << ((Key * 0x9e3779b97f4a7c15ULL) >> 58);
}

template <typename Policy, typename TableT = LockTable> class EngineStm;
template <typename Policy, typename Runtime = EngineStm<Policy>>
class EngineTxn;
template <typename T> class TObj; // libtm/LibTm.h

/// One engine-family runtime instance over a flat table: shared state
/// plus the instrumentation hooks (TxHooks), so GuideController,
/// StatsShard export, and the check harness plug in unchanged. The table
/// is a LockTable, or for LibTm the objects' own orecs.
template <typename Policy, typename TableT>
class EngineStm : public TxHooks {
public:
  using Table = TableT;
  /// log2 of the stripe count when EngineConfig::TableBits is 0: 2^16
  /// stripes are 512 KB, small enough to stay in a core's L2 beside the
  /// data and cheap to map and zero for every fresh runtime.
  static constexpr unsigned DefaultStripeBits = 16;

  explicit EngineStm(const EngineConfig &Config = EngineConfig())
      : Cfg(Config),
        Locks(Config.TableBits ? Config.TableBits : DefaultStripeBits),
        Ring(Config.CommitRingBits) {}

  EngineStm(const EngineStm &) = delete;
  EngineStm &operator=(const EngineStm &) = delete;

  const EngineConfig &config() const { return Cfg; }
  Table &lockTable() { return Locks; }
  VersionClock &clock() { return Clock; }
  CommitRing &commitRing() { return Ring; }
  /// Stripe guarding \p Addr (post-run residue probes; stripe tables).
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Locks.stripeFor(Addr);
  }
  /// Sharded per-thread telemetry (see stm/StatsShard.h).
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

  /// Layout hooks (file comment; engine/Tl2.h for the TL2-only ones).
  /// The flat layout keeps no per-descriptor state, rv comes from the
  /// global clock, and a commit is one publish group that never waits on
  /// a held stripe.
  struct TxnState {
    TxnState(EngineStm &, ThreadId) {}
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
  EngineConfig Cfg;
  VersionClock Clock;
  Table Locks;
  CommitRing Ring;
  Tl2Stats Counters;
};

/// Per-thread transaction descriptor of the engine family. The policy
/// supplies the algorithm (load/store/commit/rollback); this class
/// supplies everything around it — retry loop, undo log, abort
/// reporting, stats, observer events. Reused across transactions; not
/// thread-safe: one descriptor per worker thread.
///
/// The entry points are defined out of class below, so a runtime's .cpp
/// can instantiate them explicitly (engine/Tl2.cpp, shard/Sharded.cpp,
/// libtm/LibTm.cpp) and call sites keep calling them out of line.
template <typename Policy, typename Runtime>
class EngineTxn : public Runtime::TxnState {
public:
  using Stm = Runtime;
  using State = typename Policy::TxnState;

  EngineTxn(Runtime &Stm_, ThreadId Thread)
      : Runtime::TxnState(Stm_, Thread), S(Stm_), Thread(Thread),
        Shard(&Stm_.stats().shard(Thread)) {}

  EngineTxn(const EngineTxn &) = delete;
  EngineTxn &operator=(const EngineTxn &) = delete;

  /// Executes \p Body transactionally at static site \p Tx, retrying on
  /// conflict until the transaction commits. \p Body receives this
  /// descriptor and must funnel every shared access through it. Any
  /// other exception leaving the body or commitOrThrow aborts the
  /// attempt (rolled back and reported as an explicit abort) and
  /// propagates without a retry. Once commitOrThrow returns the attempt
  /// is published, so an exception a commit hook throws propagates with
  /// the commit counted and no abort.
  template <typename BodyFn> void run(TxId Tx, BodyFn &&Body) {
    const bool TrackLatency = S.config().TrackAttemptLatency;
    uint32_t Attempts = 0;
    for (;;) {
      if (StartGate *G = S.gate())
        G->onTxStart(Thread, Tx);
      std::chrono::steady_clock::time_point AttemptStart;
      if (TrackLatency)
        AttemptStart = std::chrono::steady_clock::now();
      begin(Tx);
      bool Committed = false;
      uint64_t Wv = 0;
      try {
        Body(*this);
        Wv = commitOrThrow();
        Committed = true;
      } catch (const TxAbortException &) {
        // Cause already reported; locks already released.
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
      } catch (...) {
        // Abort and propagate: the same rollback and report as
        // retryAbort(), then the exception leaves run().
        reportAbort(AbortEvent{Thread, Tx, AbortCauseKind::Explicit,
                               /*Cause=*/0, /*CauseVersion=*/0,
                               AbortSite::Explicit});
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
        throw;
      }
      if (Committed) {
        // Outside the try: the attempt is published.
        reportCommit(Wv, Attempts);
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
        return;
      }
      ++Attempts;
      // Yield once: avoids burning a scheduling quantum re-aborting
      // against a descheduled lock holder (we run more threads than
      // cores).
      std::this_thread::yield();
    }
  }

  /// Transactional read of a raw 64-bit word.
  uint64_t loadWord(const std::atomic<uint64_t> &Word);

  /// Transactional write of a raw 64-bit word.
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

  /// Typed transactional snapshot of a TObj, all its words under the
  /// object's one orec.
  template <typename T> T read(const TObj<T> &Obj) {
    uint64_t Raw[TObj<T>::WordCount];
    Policy::template loadWords<TObj<T>::WordCount>(*this, Obj.meta(),
                                                   Obj.words(), Raw);
    return TObj<T>::decode(Raw);
  }

  /// Typed whole-object write of a TObj.
  template <typename T>
  void write(TObj<T> &Obj, const std::type_identity_t<T> &Value) {
    uint64_t Raw[TObj<T>::WordCount];
    TObj<T>::encode(Value, Raw);
    Policy::template storeWords<TObj<T>::WordCount>(*this, Obj.meta(),
                                                    Obj.words(), Raw);
  }

  /// Explicitly aborts and retries the current transaction attempt.
  [[noreturn]] void retryAbort();

  ThreadId threadId() const { return Thread; }
  TxId txId() const { return CurrentTx; }

  // -- Policy-facing surface ------------------------------------------
  // (Public so policy statics and tests can reach it; user code goes
  // through load/store and read/write above.)

  Runtime &rt() { return S; }
  State &state() { return PS; }
  TxThreadPair self() const { return packPair(CurrentTx, Thread); }
  uint64_t rv() const { return Rv; }
  MiniVector<std::pair<std::atomic<uint64_t> *, uint64_t>, 32> &
  undoLog() {
    return Undo;
  }

  /// Reverts in-place writes of an aborting attempt (newest first, so
  /// double-written addresses end at the oldest value). The
  /// SkipUndoReplay mutant leaves the dirty values in place but still
  /// clears the log — exactly the "forgot to roll back" bug the
  /// checkers must catch.
  void undoWrites() {
    if (!S.config().Fault.SkipUndoReplay)
      for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
        It->first->store(It->second, std::memory_order_release);
    Undo.clear();
  }

  /// Reports an abort caused by a known conflicting committer and
  /// throws; \p Site tags where in the attempt the conflict surfaced.
  [[noreturn]] void abortOnOwner(TxThreadPair Owner, AbortSite Site);
  /// Reports an abort caused by a too-new version of \p Stripe (the
  /// entry's version word) and throws; attribution goes through the
  /// runtime's versionAbortRing for that stripe.
  [[noreturn]] void abortOnVersion(uint64_t Version,
                                   const std::atomic<uint64_t> *Stripe,
                                   AbortSite Site);

  /// Observer and stats shorthands for policies (single null test, as
  /// the TxAccessObserver contract requires).
  void noteLoad(const std::atomic<uint64_t> *Addr, uint64_t Value,
                uint64_t Version, bool Buffered) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, Addr, Value, Version, Buffered);
  }
  void noteStore(const std::atomic<uint64_t> *Addr, uint64_t Value) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxStore(Thread, Addr, Value);
  }
  void noteLockAcquire(uint64_t LockIndex) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(Thread, LockIndex);
  }
  void notePrepareRetry() { Shard->recordPrepareRetry(); }

private:
  void begin(TxId Tx);
  /// Commits the attempt (returns wv, 0 if read-only) or reports the
  /// abort cause and throws.
  uint64_t commitOrThrow();
  /// Reports the published commit to the stats, the runtime and the
  /// observer.
  void reportCommit(uint64_t Wv, uint32_t PriorAborts);
  /// Rolls the attempt back (the policy's onAbortCleanup) and reports
  /// \p E to the stats and the observer.
  void reportAbort(const AbortEvent &E);
  [[noreturn]] void reportAbortAndThrow(const AbortEvent &E);

  void recordAttemptLatency(std::chrono::steady_clock::time_point Start) {
    Shard->recordAttempt(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
  }

  Runtime &S;
  ThreadId Thread;
  /// This thread's telemetry shard, resolved once at construction.
  StatsShard *Shard;
  TxId CurrentTx = 0;
  uint64_t Rv = 0;
  State PS;
  /// (address, previous value) pairs of the in-place policies, restored
  /// in reverse on abort. Inline capacity, O(1) clear and retained
  /// growth, as the policies' own logs.
  MiniVector<std::pair<std::atomic<uint64_t> *, uint64_t>, 32> Undo;
};

//===----------------------------------------------------------------------===//
// EngineTxn member definitions.
//===----------------------------------------------------------------------===//

template <typename Policy, typename Runtime>
uint64_t
EngineTxn<Policy, Runtime>::loadWord(const std::atomic<uint64_t> &Word) {
  return Policy::load(*this, Word);
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::storeWord(std::atomic<uint64_t> &Word,
                                           uint64_t Value) {
  Policy::store(*this, Word, Value);
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::begin(TxId Tx) {
  CurrentTx = Tx;
  Rv = S.beginRv(*this);
  PS.clear();
  Undo.clear();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxBegin(Thread, Tx, Rv);
}

template <typename Policy, typename Runtime>
uint64_t EngineTxn<Policy, Runtime>::commitOrThrow() {
  return Policy::commit(*this);
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::reportCommit(uint64_t Wv,
                                              uint32_t PriorAborts) {
  const bool ReadOnly = Wv == 0;
  Shard->recordCommit(PriorAborts, ReadOnly);
  S.committed(*this, Thread, *Shard);
  if (TxEventObserver *Obs = S.observer())
    Obs->onCommit(CommitEvent{Thread, CurrentTx, Wv, PriorAborts, ReadOnly});
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::retryAbort() {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx, AbortCauseKind::Explicit,
                                 /*Cause=*/0, /*CauseVersion=*/0,
                                 AbortSite::Explicit});
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::abortOnOwner(TxThreadPair Owner,
                                              AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::KnownCommitter, Owner,
                                 /*CauseVersion=*/0, Site});
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::abortOnVersion(
    uint64_t Version, const std::atomic<uint64_t> *Stripe, AbortSite Site) {
  TxThreadPair Committer;
  bool Hit = S.versionAbortRing(*this, Stripe).lookup(Version, Committer);
  Shard->recordCommitRingLookup(Hit);
  if (Hit)
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter, Committer,
                                   Version, Site});
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter,
                                 /*Cause=*/0, Version, Site});
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::reportAbort(const AbortEvent &E) {
  Policy::onAbortCleanup(*this);
  Shard->recordAbort(E.Kind, E.Site);
  S.aborted(*this, *Shard);
  if (TxEventObserver *Obs = S.observer())
    Obs->onAbort(E);
}

template <typename Policy, typename Runtime>
void EngineTxn<Policy, Runtime>::reportAbortAndThrow(const AbortEvent &E) {
  reportAbort(E);
  throw TxAbortException{};
}

} // namespace gstm

#endif // GSTM_ENGINE_CORE_H
