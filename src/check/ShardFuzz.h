//===- check/ShardFuzz.h - Differential fuzz for the sharded tier --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-shard companion to the word-level fuzzer in check/Fuzz.h: the
/// same seeded read-modify-write plans (makeFuzzPlan — unique write
/// deltas, schedule-independent expected final state), but executed on a
/// ShardedStm whose cells are *explicitly placed* round-robin across the
/// shard contexts via a ShardPlacement. With the variables scattered
/// shard-by-shard, a transaction touching two variables almost always
/// spans two orec partitions, so every seed exercises the cross-shard
/// prepare/publish 2PC; plans analytically predict exactly how many
/// commits must be cross-shard, and the run fails unless the runtime's
/// CrossShardCommits counter agrees — the telemetry is under test along
/// with the protocol.
///
/// Each seed is judged like the rmw fuzzer (opacity/serializability
/// checkers over the recorded history, final state vs the analytic
/// expectation, lock-table quiescence, commit accounting) and
/// differentially: the concurrent sharded run, a shards=1 degenerate run
/// and a serial reference execution of the same plan must all pass and
/// agree on the final state.
///
/// Fault injection: the TL2 faults (Tl2FaultInjection) break the shared
/// commit on purpose — TornVersionPublish tears the coordinated publish
/// across every participating shard, SkipReadValidation drops the 2PC's
/// validation; the self-tests require the checkers to flag such runs,
/// proving the harness would catch a real 2PC ordering bug.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_SHARDFUZZ_H
#define GSTM_CHECK_SHARDFUZZ_H

#include "check/Fuzz.h"
#include "shard/ShardConfig.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gstm {

/// Shape of the sharded fuzz workloads. Plan generation reuses
/// makeFuzzPlan, so (Seed, Threads, TxnsPerThread, Vars, MaxOpsPerTxn)
/// expand exactly as in the rmw workload.
struct ShardFuzzConfig {
  unsigned Threads = 3;
  unsigned TxnsPerThread = 8;
  /// Cells, placed round-robin: variable v lives on shard v % ShardCount.
  unsigned Vars = 12;
  unsigned MaxOpsPerTxn = 4;
  /// Shard contexts (power of two); 1 degenerates to unsharded TL2
  /// semantics over the sharded chassis.
  unsigned ShardCount = 4;
  unsigned PreemptShift = 2;
  unsigned PerturbShift = 2;
  /// Fault injection (checker self-test only).
  Tl2FaultInjection Fault;
  CheckerConfig Checker;
};

/// Outcome of one (seed, variant) sharded execution.
struct ShardFuzzResult {
  /// Empty when the run passed; otherwise the first failure, prefixed
  /// with its class (checker / final-state / lock-residue / accounting /
  /// coverage).
  std::string Error;
  CheckResult Check;
  std::vector<uint64_t> Final;
  std::vector<uint64_t> Expected;
  size_t Attempts = 0;
  size_t Committed = 0;
  uint64_t PerturbYields = 0;
  /// Runtime telemetry after the run (aggregated over all shard groups).
  uint64_t CrossShardCommits = 0;
  uint64_t CrossShardAborts = 0;
  uint64_t PrepareRetries = 0;
  /// Cross-shard writer commits the plan analytically requires.
  uint64_t ExpectedCrossShardCommits = 0;

  bool passed() const { return Error.empty(); }
};

/// Runs the plan expanded from \p Seed on a ShardedStm and judges it.
/// \p Serial executes the plan by one worker thread-major (the reference
/// interleaving the checkers must accept).
ShardFuzzResult runShardFuzzIteration(uint64_t Seed,
                                      const ShardFuzzConfig &Cfg,
                                      bool Serial = false);

/// One seed across the sharded variants: concurrent at Cfg.ShardCount,
/// concurrent degenerate shards=1, and the serial reference; all must
/// pass and agree on the final state.
struct ShardDifferentialResult {
  std::vector<std::pair<std::string, ShardFuzzResult>> PerVariant;
  std::string Error;

  bool passed() const { return Error.empty(); }
};

ShardDifferentialResult runShardDifferential(uint64_t Seed,
                                             const ShardFuzzConfig &Cfg);

} // namespace gstm

#endif // GSTM_CHECK_SHARDFUZZ_H
