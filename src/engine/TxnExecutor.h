//===- engine/TxnExecutor.h - Runtime configuration and abort token ------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every runtime and the retry loop (EngineTxn::run, engine/Core.h)
/// share without the chassis itself: the one runtime configuration, its
/// fault-injection knobs, and the abort token the loop catches.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TXNEXECUTOR_H
#define GSTM_ENGINE_TXNEXECUTOR_H

namespace gstm {

/// Internal control-flow token thrown on transaction abort and caught by
/// EngineTxn::run's retry loop. Never escapes the STM; user code must
/// not catch it.
struct TxAbortException {};

/// Deliberately broken engine behavior for the correctness harness's
/// mutation self-tests (tests/check_test.cpp, tests/engine_test.cpp,
/// tests/shard_test.cpp, tests/libtm_test.cpp): each knob disables one
/// safety mechanism so the history checkers can prove they flag the
/// resulting executions. Never enable outside the self-tests.
struct EngineFault {
  /// TL2 (flat, sharded and LibTm) and orec-eager: commit skips read-set
  /// validation — a commit that interleaved after this attempt's reads
  /// goes undetected (lost updates, stale reads entering committed
  /// state).
  bool SkipReadValidation = false;
  /// TL2: publish the new stripe versions (releasing the commit locks)
  /// before writing the write set back, so readers can validate a stripe
  /// at the new version while still observing the old data. On the
  /// sharded tier this tears every participating shard of a 2PC commit,
  /// on LibTm every written object.
  bool TornVersionPublish = false;
  /// orec-eager, the undo-log engine: an aborting attempt leaves its
  /// in-place writes behind — uncommitted state becomes visible to
  /// everyone (dirty reads, phantom final state).
  bool SkipUndoReplay = false;
};

/// Construction-time configuration of every runtime: the flat engine
/// family (TL2 included, and so LibTm), and — through ShardConfig — the
/// sharded tier. The table holds the orecs of plain words; an object on
/// the flat runtime keeps its orec in its Meta word.
struct EngineConfig {
  /// log2 of the lock-table size; 0 = the runtime's default (2^16
  /// stripes on the flat table, 2^18 per shard on the sharded tier).
  unsigned TableBits = 0;
  /// log2 of the commit-ring slots (one ring per shard when sharded).
  unsigned CommitRingBits = 13;
  /// When true, every attempt's wall-clock latency is accumulated into
  /// the per-thread stats shard (two steady_clock reads per attempt).
  /// Off by default so microbenchmarks measure bare STM cost; the
  /// experiment harness turns it on (RunnerConfig::Stm, core/Runner.h).
  bool TrackAttemptLatency = false;
  /// Fault injection for the checker self-tests; all off by default.
  EngineFault Fault;
};

} // namespace gstm

#endif // GSTM_ENGINE_TXNEXECUTOR_H
