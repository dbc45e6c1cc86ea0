//===- core/GuideController.h - Online guided-execution controller -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of guided execution (paper Sec. V, Fig. 2). The
/// controller plugs into an STM as both StartGate and TxEventObserver:
///
///  * As observer it tracks the *current* thread transactional state: each
///    commit closes a tuple (commit + aborts logged since the previous
///    commit) which is resolved against the model. Unknown tuples set the
///    current state to UnknownState so execution proceeds unimpeded until
///    a known state is re-entered, exactly as the paper prescribes for
///    states the training runs never captured.
///
///  * As gate it withholds a thread whose (transaction, thread) pair is
///    not part of any high-probability destination of the current state,
///    re-checking as concurrent commits move the current state. After k
///    unsuccessful re-checks the thread is released to avoid deadlock and
///    ensure progress (the paper's k-retry rule). A held thread is also
///    released at once when every live worker is held: no commit can then
///    move the state, so waiting out k retries would only waste time.
///
/// The policy is the fixed model trained offline (paper Sec. III) and
/// accepted by the analyzer (Sec. IV); it does not change during the run.
/// An optional TtsSink receives every formed tuple, null-gated the same way
/// as the STM's access-observer hook so a detached sink costs one
/// predictable branch per commit.
///
/// Events are forwarded to an optional downstream observer so profiling
/// metrics can still be collected during guided runs.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_GUIDECONTROLLER_H
#define GSTM_CORE_GUIDECONTROLLER_H

#include "core/GuidedPolicy.h"
#include "core/Trace.h"
#include "stm/Observer.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gstm {

/// Tunables of the online controller.
struct GuideConfig {
  /// The paper's k: gate re-checks before a held thread is force-released.
  uint32_t MaxGateRetries = 8;
  /// Sleep between gate re-checks, in microseconds; 0 means yield only.
  /// A real sleep (rather than a yield loop) frees the CPU for the
  /// threads that can move the current state forward and, unlike
  /// spinning, consumes no CPU time in the held thread — so the gate does
  /// not pollute the per-thread execution-time metric it exists to
  /// stabilize.
  uint32_t GateSleepMicros = 20;
};

/// Counters describing what the gate did during a run.
struct GuideStats {
  uint64_t GateChecks = 0;
  /// Gate invocations that were held back at least once.
  uint64_t Holds = 0;
  /// Total gate re-checks across all holds. A hold that is eventually
  /// admitted contributes the retries it waited; a forced release
  /// contributes exactly MaxGateRetries; an all-held release contributes
  /// the retries it waited before every live worker was held (possibly 0).
  uint64_t GateRetries = 0;
  /// Holds that exhausted k retries and were force-released.
  uint64_t ForcedReleases = 0;
  /// Holds released early because every live worker was held at the gate,
  /// so no commit could move the current state.
  uint64_t AllHeldReleases = 0;
  /// Commits whose tuple was not in the model (current state unknown).
  uint64_t UnknownStates = 0;
  uint64_t KnownStates = 0;

  /// Adds every counter of \p Other (folding runs into a side total).
  void merge(const GuideStats &Other) {
    GateChecks += Other.GateChecks;
    Holds += Other.Holds;
    GateRetries += Other.GateRetries;
    ForcedReleases += Other.ForcedReleases;
    AllHeldReleases += Other.AllHeldReleases;
    UnknownStates += Other.UnknownStates;
    KnownStates += Other.KnownStates;
  }
};

/// Consumer of the commit-time TTS observation stream. \p Seq is a dense
/// global tuple-formation sequence so a consumer draining per-thread
/// buffers can restore the commit order the tuples were formed in. Called
/// on the committing worker thread; implementations must be thread-safe
/// across threads and must not block (the commit path runs through here).
class TtsSink {
public:
  virtual ~TtsSink() = default;
  virtual void observeTuple(ThreadId Thread, uint64_t Seq,
                            const StateTuple &Tuple) = 0;
};

/// Online guided-execution controller. One instance per guided run.
class GuideController : public StartGate, public TxEventObserver {
public:
  /// \p Policy must outlive the controller. \p Downstream (optional)
  /// receives every event after state tracking.
  GuideController(const GuidedPolicy &Policy, const GuideConfig &Config,
                  TxEventObserver *Downstream = nullptr);

  /// Attaches a tuple consumer (nullptr to detach, the default).
  /// Null-gated on the commit path.
  void setTtsSink(TtsSink *S) { Sink.store(S, std::memory_order_release); }

  // StartGate: hold low-probability transactions back. \p Thread must be
  // below 64; its first call makes it a live worker.
  void onTxStart(ThreadId Thread, TxId Tx) override;

  /// Removes \p Thread from the live workers once its body has returned,
  /// so a start held later is not kept waiting for a commit it can never
  /// make.
  void onThreadExit(ThreadId Thread);

  // TxEventObserver: track the current state.
  void onCommit(const CommitEvent &E) override;
  void onAbort(const AbortEvent &E) override;

  /// State of the newest tuple resolved so far (UnknownState before the
  /// first commit and after any unmodeled tuple).
  StateId currentState() const {
    return static_cast<StateId>(Current.load(std::memory_order_acquire));
  }

  /// Snapshot of the gate counters. Not synchronized with running
  /// workers; call after the run has quiesced for exact values.
  GuideStats stats() const;

private:
  const GuidedPolicy &Policy;
  GuideConfig Cfg;
  TxEventObserver *Downstream;

  std::atomic<TtsSink *> Sink{nullptr};

  /// The newest published tuple as (Seq << 32) | State, Seq its TupleSeq
  /// modulo 2^32. onCommit only moves it forward, so a committer that
  /// resolves after a newer tuple's committer cannot overwrite the newer
  /// state. The initial word holds Seq 2^32 - 1, which tuple 0 beats.
  std::atomic<uint64_t> Current{~uint64_t{0} << 32 | UnknownState};

  /// Serializes tuple formation. Aborts/commits are frequent but short;
  /// the workloads' transaction bodies dominate.
  std::mutex PendingMutex;
  std::vector<TxThreadPair> PendingAborts;
  /// Tuple-formation order handed to the TtsSink; only written under
  /// PendingMutex.
  uint64_t TupleSeq = 0;

  /// One bit per ThreadId that has reached the gate and not exited.
  std::atomic<uint64_t> LiveMask{0};
  /// Live workers currently sleeping between gate re-checks.
  std::atomic<uint32_t> HeldNow{0};

  std::atomic<uint64_t> GateChecks{0};
  std::atomic<uint64_t> Holds{0};
  std::atomic<uint64_t> GateRetries{0};
  std::atomic<uint64_t> ForcedReleases{0};
  std::atomic<uint64_t> AllHeldReleases{0};
  std::atomic<uint64_t> UnknownStates{0};
  std::atomic<uint64_t> KnownStates{0};
};

} // namespace gstm

#endif // GSTM_CORE_GUIDECONTROLLER_H
