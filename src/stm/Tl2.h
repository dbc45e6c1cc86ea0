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

#include <chrono>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

namespace gstm {

template <typename T> class TVar;

/// Deliberately broken STM behavior for the correctness harness's
/// mutation self-test (src/check/, tests/check_test.cpp): each knob
/// disables one safety mechanism so the history checkers can prove they
/// flag the resulting executions. Consulted only on the commit path.
/// Never enable outside the self-test.
struct Tl2FaultInjection {
  /// Skip commit-time read-set validation: a commit that interleaved
  /// after this attempt's reads goes undetected (lost updates, stale
  /// reads entering committed state).
  bool SkipReadValidation = false;
  /// Publish the new stripe versions (releasing the commit locks) before
  /// writing the write-set values back: readers can validate a stripe at
  /// the new version while still observing the old data.
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
/// plus the instrumentation hooks. Workloads create one per run.
class Tl2Stm {
public:
  explicit Tl2Stm(const Tl2Config &Config = Tl2Config())
      : Cfg(Config), Locks(Config.LockTableBits, Config.StripeHash),
        Ring(Config.CommitRingBits) {}

  Tl2Stm(const Tl2Stm &) = delete;
  Tl2Stm &operator=(const Tl2Stm &) = delete;

  /// Installs \p Obs as the event observer (nullptr to disable). Must not
  /// be called while transactions are running.
  void setObserver(TxEventObserver *Obs) { Observer = Obs; }

  /// Installs \p G as the start gate (nullptr to disable). Must not be
  /// called while transactions are running.
  void setGate(StartGate *G) { Gate = G; }

  /// Installs a contention manager that overrides the config's backoff
  /// policy (nullptr to restore it). Must not be called while
  /// transactions are running.
  void setContentionManager(ContentionManager *M) { Cm = M; }

  /// Installs \p Obs as the per-access observer (nullptr to disable,
  /// the default). Must not be called while transactions are running.
  /// With no observer the hot path pays one null test per access; see
  /// TxAccessObserver.
  void setAccessObserver(TxAccessObserver *Obs) { AccessObs = Obs; }

  const Tl2Config &config() const { return Cfg; }
  LockTable &lockTable() { return Locks; }
  VersionClock &clock() { return Clock; }
  CommitRing &commitRing() { return Ring; }
  TxEventObserver *observer() const { return Observer; }
  StartGate *gate() const { return Gate; }
  ContentionManager *contentionManager() const { return Cm; }
  TxAccessObserver *accessObserver() const { return AccessObs; }
  /// Sharded per-thread telemetry (see stm/StatsShard.h). Workers touch
  /// only their own shard; aggregate() after the run for exact totals.
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

private:
  Tl2Config Cfg;
  VersionClock Clock;
  LockTable Locks;
  CommitRing Ring;
  TxEventObserver *Observer = nullptr;
  StartGate *Gate = nullptr;
  ContentionManager *Cm = nullptr;
  TxAccessObserver *AccessObs = nullptr;
  Tl2Stats Counters;
};

/// Per-thread transaction descriptor. Reused across transactions; the
/// read/write sets keep their capacity between runs. Not thread-safe: one
/// descriptor per worker thread. The retry loop (`run`) comes from the
/// shared engine-family executor (engine/TxnExecutor.h).
class Tl2Txn : public TxnExecutor<Tl2Txn> {
public:
  Tl2Txn(Tl2Stm &Stm, ThreadId Thread)
      : TxnExecutor<Tl2Txn>(Thread), S(Stm), Thread(Thread),
        Shard(&Stm.stats().shard(Thread)) {}

  Tl2Txn(const Tl2Txn &) = delete;
  Tl2Txn &operator=(const Tl2Txn &) = delete;

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
  friend class TxnExecutor<Tl2Txn>;

  struct WriteEntry {
    std::atomic<uint64_t> *Addr;
    uint64_t Value;
  };
  struct AcquiredLock {
    size_t StripeIndex;
    uint64_t PreviousWord;
  };

  /// Executor contract (engine/TxnExecutor.h).
  Tl2Stm &stm() { return S; }
  StatsShard *shard() { return Shard; }

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
  /// Reports an abort caused by a too-new version and throws; attribution
  /// goes through the commit ring.
  [[noreturn]] void abortOnVersion(uint64_t Version, AbortSite Site);
  [[noreturn]] void abortUnknown(AbortSite Site);
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

  Tl2Stm &S;
  ThreadId Thread;
  /// This thread's telemetry shard, resolved once at construction.
  StatsShard *Shard;
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
  MiniVector<size_t, 32> StripeScratch;
  MiniVector<AcquiredLock, 32> Acquired;
};

} // namespace gstm

#endif // GSTM_STM_TL2_H
