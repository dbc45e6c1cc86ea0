//===- engine/TxnExecutor.h - Shared transaction retry loop --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retry loop every engine shares — start gate, contention-manager
/// hooks, attempt-latency tracking, abort catch, backoff, scheduler
/// perturbation — and the one runtime configuration they all take.
/// TxnExecutor is a CRTP base; a descriptor (the engine chassis's
/// EngineTxn, LibTm's LibTxn) derives from `TxnExecutor<Self>` and
/// provides:
///
///   stm()                 - the runtime, exposing gate(),
///                           contentionManager(), and config() (an
///                           EngineConfig)
///   shard()               - this thread's StatsShard*
///   threadId()            - the worker's ThreadId
///   begin(TxId)           - reset per-attempt state, sample rv
///   commitOrThrow()       - commit and return wv (0 = read-only), or
///                           throw TxAbortException
///   reportCommit(Wv, PriorAborts) - stats and observer for a commit
///   opensCount()          - locations the attempt opened (CM currency)
///   reportAbort(Event)    - roll the attempt back and report the abort
///
/// The loop's contract with commitOrThrow/abort paths: on abort the
/// descriptor must have already rolled back (undo, lock release) and
/// reported the event before throwing — the executor only times, backs
/// off, and retries. The protected LastEnemy/LastEnemyKnown/LastOpens
/// fields are what the descriptor's abort path records for the contention
/// manager.
///
/// Any other exception leaving the body or commitOrThrow aborts the
/// attempt and propagates: the executor has the descriptor roll back and
/// report it as an explicit abort, then rethrows it to the caller of
/// run(), and the transaction is not retried. In-place engines rely on
/// this to undo their writes and release their locks before the exception
/// leaves. Once commitOrThrow returns the attempt is published, so an
/// exception a commit hook throws (observer, commit listener, contention
/// manager) propagates with the commit already counted and no abort.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TXNEXECUTOR_H
#define GSTM_ENGINE_TXNEXECUTOR_H

#include "stm/Contention.h"
#include "stm/Observer.h"
#include "stm/StatsShard.h"
#include "support/Ids.h"

#include <chrono>
#include <cstdint>
#include <thread>

namespace gstm {

/// Internal control-flow token thrown on transaction abort and caught by
/// TxnExecutor::run's retry loop. Never escapes the STM; user code must
/// not catch it.
struct TxAbortException {};

/// Deliberately broken engine behavior for the correctness harness's
/// mutation self-tests (tests/check_test.cpp, tests/engine_test.cpp,
/// tests/shard_test.cpp): each knob disables one safety mechanism so the
/// history checkers can prove they flag the resulting executions. Never
/// enable outside the self-tests.
struct EngineFault {
  /// TL2 (flat and sharded) and orec-eager: commit skips read-set
  /// validation — a commit that interleaved after this attempt's reads
  /// goes undetected (lost updates, stale reads entering committed
  /// state). The pessimistic engines (tlrw, 2pl-undo) have no validation
  /// step to skip: their reads are protected by held locks.
  bool SkipReadValidation = false;
  /// TL2: publish the new stripe versions (releasing the commit locks)
  /// before writing the write set back, so readers can validate a stripe
  /// at the new version while still observing the old data. On the
  /// sharded tier this tears every participating shard of a 2PC commit.
  bool TornVersionPublish = false;
  /// Undo-log engines (orec-eager, 2pl-undo): an aborting attempt leaves
  /// its in-place writes behind — uncommitted state becomes visible to
  /// everyone (dirty reads, phantom final state).
  bool SkipUndoReplay = false;
  /// TLRW: a writer stops draining reader bytes before writing in place —
  /// live readers observe torn snapshots under an unchanged version.
  bool SkipReaderDrain = false;
};

/// Construction-time configuration of every runtime: the engine family
/// (TL2 included), LibTm, and — through ShardConfig — the sharded tier.
/// LibTm keeps its locks in its objects, so it has no table to size and
/// no fault to inject.
struct EngineConfig {
  /// log2 of the lock-table size; 0 = the runtime's default (2^20 TL2 and
  /// orec stripes, 2^16 TLRW byte locks, which are 16x a stripe word, and
  /// 2^18 stripes per shard on the sharded tier).
  unsigned TableBits = 0;
  /// log2 of the commit-ring slots (one ring per shard when sharded).
  unsigned CommitRingBits = 13;
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
  /// Fault injection for the checker self-tests; all off by default.
  EngineFault Fault;
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
      bool Committed = false;
      uint64_t Opens = 0, Wv = 0;
      try {
        Body(D);
        // Sampled before commit, which may release the logs that count
        // the opens (the engine-family policies clear theirs).
        Opens = Cm ? D.opensCount() : 0;
        Wv = D.commitOrThrow();
        Committed = true;
      } catch (const TxAbortException &) {
        // Cause already reported; locks already released.
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
      } catch (...) {
        // Abort and propagate (file comment): the same rollback and
        // report as retryAbort(), then the exception leaves run().
        D.reportAbort(AbortEvent{D.threadId(), Tx, AbortCauseKind::Explicit,
                                 /*Cause=*/0, /*CauseVersion=*/0,
                                 AbortSite::Explicit});
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
        throw;
      }
      if (Committed) {
        // Outside the try: the attempt is published (file comment).
        D.reportCommit(Wv, Attempts);
        if (TrackLatency)
          recordAttemptLatency(AttemptStart);
        if (Cm)
          Cm->onCommit(D.threadId(), Opens);
        return;
      }
      ++Attempts;
      if (Cm) {
        uint64_t Ns = Cm->onAbort(D.threadId(), LastEnemy, LastEnemyKnown,
                                  Attempts, LastOpens);
        if (Ns > 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Ns));
      } else {
        // Yield once: avoids burning a scheduling quantum re-aborting
        // against a descheduled lock holder (we run more threads than
        // cores).
        std::this_thread::yield();
      }
    }
  }

protected:
  explicit TxnExecutor(ThreadId Thread)
      : PreemptLcg(0x2545f4914f6cdd1dULL ^
                   (uint64_t{Thread} * 0x9e3779b97f4a7c15ULL)) {}

  /// Scheduler perturbation: yields the CPU with probability
  /// 2^-PreemptShift per call when the config's PreemptShift is non-zero
  /// (see EngineConfig::PreemptShift).
  void maybePreempt() {
    unsigned Shift = derived().stm().config().PreemptShift;
    if (Shift == 0)
      return;
    PreemptLcg = PreemptLcg * 6364136223846793005ULL +
                 1442695040888963407ULL;
    if (((PreemptLcg >> 33) & ((uint64_t{1} << Shift) - 1)) == 0)
      std::this_thread::yield();
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

  uint64_t PreemptLcg;
};

} // namespace gstm

#endif // GSTM_ENGINE_TXNEXECUTOR_H
