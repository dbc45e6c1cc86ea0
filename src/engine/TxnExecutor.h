//===- engine/TxnExecutor.h - Shared transaction retry loop --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retry loop every engine in the family shares. Before this header
/// existed, `Tl2Txn::run` and `LibTxn::run` each hand-rolled the same
/// machinery — start gate, contention-manager hooks, attempt-latency
/// tracking, abort catch, backoff, scheduler perturbation — and the two
/// copies had already drifted (LibTm lacked contention-manager support
/// entirely). TxnExecutor is the single CRTP implementation; a descriptor
/// derives from `TxnExecutor<Self>` and provides:
///
///   stm()                 - the runtime, exposing gate(),
///                           contentionManager(), and config() with
///                           Backoff / PreemptShift / TrackAttemptLatency
///   shard()               - this thread's StatsShard*
///   threadId()            - the worker's ThreadId
///   begin(TxId)           - reset per-attempt state, sample rv
///   commitOrThrow(uint32_t) - commit or throw TxAbortException
///   opensCount()          - locations the attempt opened (CM currency)
///
/// The loop's contract with commitOrThrow/abort paths: on abort the
/// descriptor must have already rolled back (undo, lock release) and
/// reported the event before throwing — the executor only times, backs
/// off, and retries. The protected LastEnemy/LastEnemyKnown/LastOpens
/// fields are what the descriptor's abort path records for the contention
/// manager.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TXNEXECUTOR_H
#define GSTM_ENGINE_TXNEXECUTOR_H

#include "stm/Contention.h"
#include "stm/Observer.h"
#include "stm/StatsShard.h"
#include "support/Ids.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

namespace gstm {

/// Internal control-flow token thrown on transaction abort and caught by
/// TxnExecutor::run's retry loop. Never escapes the STM; user code must
/// not catch it.
struct TxAbortException {};

/// Retry back-off policy applied after an abort (when no contention
/// manager is installed; an installed manager overrides it).
enum class BackoffKind : uint8_t {
  /// Retry immediately.
  None,
  /// Yield the CPU once; avoids burning a scheduling quantum re-aborting
  /// against a descheduled lock holder (we run more threads than cores).
  Yield,
  /// Exponentially growing sleep, capped.
  Exponential,
};

/// CRTP base implementing the engine-family retry loop. See the file
/// comment for the Derived contract.
template <typename Derived> class TxnExecutor {
public:
  /// Executes \p Body transactionally at static site \p Tx, retrying on
  /// conflict until the transaction commits. \p Body receives the derived
  /// descriptor and must funnel every shared access through it.
  template <typename BodyFn> void run(TxId Tx, BodyFn &&Body) {
    Derived &D = derived();
    ContentionManager *Cm = D.stm().contentionManager();
    if (Cm)
      Cm->onTxBegin(D.threadId());
    const bool TrackLatency = D.stm().config().TrackAttemptLatency;
    uint32_t Attempts = 0;
    for (;;) {
      if (StartGate *G = D.stm().gate())
        G->onTxStart(D.threadId(), Tx);
      std::chrono::steady_clock::time_point AttemptStart;
      if (TrackLatency)
        AttemptStart = std::chrono::steady_clock::now();
      D.begin(Tx);
      try {
        Body(D);
        // Sampled before commit, which may release the logs that count
        // the opens (the engine-family policies clear theirs).
        const uint64_t Opens = Cm ? D.opensCount() : 0;
        D.commitOrThrow(Attempts);
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
        if (Cm)
          Cm->onCommit(D.threadId(), Opens);
        return;
      } catch (const TxAbortException &) {
        // Cause already reported; locks already released.
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
      }
      ++Attempts;
      if (Cm) {
        uint64_t Ns = Cm->onAbort(D.threadId(), LastEnemy, LastEnemyKnown,
                                  Attempts, LastOpens);
        if (Ns > 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Ns));
      } else {
        backoff(Attempts);
      }
    }
  }

protected:
  explicit TxnExecutor(ThreadId Thread)
      : PreemptLcg(0x2545f4914f6cdd1dULL ^
                   (uint64_t{Thread} * 0x9e3779b97f4a7c15ULL)) {}

  /// Scheduler perturbation: when the config's PreemptShift is non-zero,
  /// yields the CPU with probability 2^-PreemptShift per call. On a
  /// machine with fewer cores than worker threads, transactions otherwise
  /// execute back-to-back within a scheduling quantum and almost never
  /// overlap, which would suppress the conflicts/aborts whose
  /// non-determinism the paper studies; random yield points restore
  /// multicore-like interleaving density (see DESIGN.md, substitutions).
  void maybePreempt() {
    unsigned Shift = derived().stm().config().PreemptShift;
    if (Shift == 0)
      return;
    PreemptLcg = PreemptLcg * 6364136223846793005ULL +
                 1442695040888963407ULL;
    if (((PreemptLcg >> 33) & ((uint64_t{1} << Shift) - 1)) == 0)
      std::this_thread::yield();
  }

  void backoff(uint32_t Attempts) {
    switch (derived().stm().config().Backoff) {
    case BackoffKind::None:
      return;
    case BackoffKind::Yield:
      std::this_thread::yield();
      return;
    case BackoffKind::Exponential: {
      unsigned Shift = std::min(Attempts, 10u);
      std::this_thread::sleep_for(std::chrono::nanoseconds(50ull << Shift));
      return;
    }
    }
  }

  void recordAttemptLatency(std::chrono::steady_clock::time_point Start) {
    derived().shard()->recordAttempt(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
  }

  /// Conflicting transaction of the most recent abort and the aborted
  /// attempt's read+write set size, recorded by the derived abort path
  /// for the contention manager.
  TxThreadPair LastEnemy = 0;
  bool LastEnemyKnown = false;
  uint64_t LastOpens = 0;

private:
  Derived &derived() { return static_cast<Derived &>(*this); }
  const Derived &derived() const {
    return static_cast<const Derived &>(*this);
  }

  uint64_t PreemptLcg;
};

} // namespace gstm

#endif // GSTM_ENGINE_TXNEXECUTOR_H
