//===- stm/Observer.h - STM instrumentation interfaces -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hook interfaces through which the model layer plugs into an STM
/// runtime without the STM depending on the model, and TxHooks, the one
/// place every runtime stores them:
///
///  * TxEventObserver — receives every commit and abort, with causal
///    attribution where available. The paper instruments TX_start,
///    TX_abort, TX_commit in TL2 to emit its "transaction sequence"; this
///    is the C++ equivalent.
///  * StartGate — consulted at every transaction (re)start. Guided
///    execution (paper Sec. V) withholds threads here when their
///    (transaction, thread) pair is not part of any high-probability
///    destination state of the current state.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_OBSERVER_H
#define GSTM_STM_OBSERVER_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>

namespace gstm {

/// Why a transaction attempt aborted.
enum class AbortCauseKind : uint8_t {
  /// Conflicting committer identified (pair in AbortEvent::Cause).
  KnownCommitter,
  /// Conflict detected but the committer's identity was lost (stale ring
  /// entry or torn stripe read).
  UnknownCommitter,
  /// The user requested an explicit retry.
  Explicit,
};

/// Where in the transaction lifecycle the abort fired. Orthogonal to
/// AbortCauseKind: the cause says *who* conflicted, the site says *when*
/// the conflict surfaced.
enum class AbortSite : uint8_t {
  /// During a transactional load (stale version or locked stripe seen at
  /// read time).
  Read,
  /// While acquiring a stripe/object lock — encounter-time in the eager
  /// engines, commit-time in the lazy ones.
  LockAcquire,
  /// During commit-time read-set validation.
  CommitValidate,
  /// User-requested retryAbort.
  Explicit,
};

/// Description of one abort, passed to TxEventObserver::onAbort.
struct AbortEvent {
  ThreadId Thread;
  TxId Tx;
  AbortCauseKind Kind;
  /// Valid when Kind == KnownCommitter.
  TxThreadPair Cause;
  /// Version that exposed the conflict, when known (else 0).
  uint64_t CauseVersion;
  /// Lifecycle point at which the abort fired.
  AbortSite Site = AbortSite::Read;
};

/// Description of one successful commit.
struct CommitEvent {
  ThreadId Thread;
  TxId Tx;
  /// Write version installed by this commit. Read-only commits install no
  /// version; check ReadOnly rather than comparing Version against 0,
  /// which is also the clock's initial value.
  uint64_t Version;
  /// Number of aborted attempts this transaction suffered before
  /// committing (for per-thread abort histograms).
  uint32_t PriorAborts;
  /// True when the commit installed no version (empty write set). The
  /// explicit flag replaces the old `Version == 0` sentinel, which
  /// collided with the legitimate "version unknown" meaning downstream.
  bool ReadOnly = false;
};

/// Receives the transaction event stream. Implementations must be
/// thread-safe; callbacks may be invoked concurrently from all workers.
class TxEventObserver {
public:
  virtual ~TxEventObserver() = default;
  virtual void onCommit(const CommitEvent &E) = 0;
  virtual void onAbort(const AbortEvent &E) = 0;
};

/// Gate consulted before each transaction attempt begins. May block the
/// calling thread (guided execution holds threads back here) but must
/// eventually return to guarantee progress.
class StartGate {
public:
  virtual ~StartGate() = default;
  virtual void onTxStart(ThreadId Thread, TxId Tx) = 0;
};

/// Per-access instrumentation used by the correctness harness
/// (src/check/): every transactional read (value + validated version),
/// buffered/in-place write, and versioned-lock acquisition of every
/// attempt — including attempts that later abort. The runtimes guard each
/// callback behind a single null-pointer test on a field cached in the
/// shared STM object, so a run without an access observer pays one
/// predictable branch per access and nothing else (the acceptance bar the
/// micro_stm_ops bench pins down).
///
/// Callbacks run on the worker thread performing the access and are
/// ordered within that thread; implementations must be thread-safe across
/// threads. LibTm reports its object-granular accesses with Addr = the
/// TObj (whose leading word is its Meta) and Value = payload word 0,
/// which is exact for the single-word objects the check harness drives.
class TxAccessObserver {
public:
  virtual ~TxAccessObserver() = default;

  /// A new attempt of (\p Thread, \p Tx) begins; \p ReadVersion is the
  /// read version (rv) the attempt sampled.
  virtual void onTxBegin(ThreadId Thread, TxId Tx, uint64_t ReadVersion) = 0;

  /// A transactional read of \p Addr returned \p Value. \p Version is the
  /// stripe/object version the read validated against; \p Buffered marks
  /// reads served from the attempt's own write set (or, in the eager
  /// engines, from a stripe the attempt already owns), which saw no
  /// global state and carry Version = 0.
  virtual void onTxLoad(ThreadId Thread, const void *Addr, uint64_t Value,
                        uint64_t Version, bool Buffered) = 0;

  /// A transactional write of \p Value to \p Addr (buffered in the lazy
  /// engines, in-place under the stripe lock in the eager ones).
  virtual void onTxStore(ThreadId Thread, const void *Addr,
                         uint64_t Value) = 0;

  /// The attempt acquired the versioned lock identified by \p LockId
  /// (stripe index for TL2, object address for LibTm) — encounter-time in
  /// the eager engines, commit-time otherwise.
  virtual void onLockAcquire(ThreadId Thread, uint64_t LockId) = 0;
};

/// Declared only so setContentionManager keeps its signature; it has no
/// definition, so no object of it can exist.
class ContentionManager;

/// The hook surface shared by every runtime (EngineStm, ShardedStm,
/// LibTm): the event observer, the start gate and the per-access
/// observer. Every hook is off (nullptr) by default; a setter takes
/// nullptr to turn its hook off again. None of the setters may be called
/// while transactions are running.
class TxHooks {
public:
  void setObserver(TxEventObserver *Obs) { Observer = Obs; }
  void setGate(StartGate *G) { Gate = G; }
  /// Stores nothing: an abort always backs off with one yield. Kept
  /// because bench/e2e compiles against it.
  void setContentionManager(ContentionManager *M) {
    assert(!M && "there is no contention manager to install");
    (void)M;
  }
  /// With no access observer the hot path pays one null test per access;
  /// see TxAccessObserver.
  void setAccessObserver(TxAccessObserver *Obs) { AccessObs = Obs; }

  TxEventObserver *observer() const { return Observer; }
  StartGate *gate() const { return Gate; }
  TxAccessObserver *accessObserver() const { return AccessObs; }

private:
  TxEventObserver *Observer = nullptr;
  StartGate *Gate = nullptr;
  TxAccessObserver *AccessObs = nullptr;
};

} // namespace gstm

#endif // GSTM_STM_OBSERVER_H
