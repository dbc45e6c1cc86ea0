//===- check/Checker.h - History-based STM safety checkers ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety checkers over recorded transactional histories (check/History.h).
/// Guided commit optimization, replay gating and contention management all
/// reorder and throttle commits; these checkers are the harness that
/// proves such reordering never bought performance with correctness.
///
/// Three layers, cheapest first:
///
///  * checkInvariants — always-on assertions that need no search: commit
///    versions unique, above the committing attempt's rv and per-thread
///    monotonic; every validated read version within the attempt's
///    snapshot; no value observed that only an aborted attempt ever
///    wrote.
///  * checkOpacity — every attempt, *including aborted ones*, must have
///    observed a consistent snapshot: the value-intervals of its reads
///    (derived from the committed-writer timeline per location) must
///    share a common point. This is the operative part of opacity that
///    TL2-style rv validation exists to guarantee.
///  * checkCommittedSerializable — searches for a total order of the
///    committed transactions consistent with every observed read value
///    (read-from + no intervening writer), the recorded real-time order,
///    and acyclicity: graph reachability for propagation plus bounded
///    backtracking over the residual writer-placement choices. Sound and
///    complete for histories whose read-from mapping is unambiguous
///    (which the fuzz workloads guarantee by writing unique values);
///    returns Inconclusive rather than guessing when the search budget
///    is exhausted.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_CHECKER_H
#define GSTM_CHECK_CHECKER_H

#include "check/History.h"
#include "stm/LockTable.h"

#include <cstdint>
#include <string>

namespace gstm {

/// Outcome of one checker pass.
enum class Verdict : uint8_t {
  /// No violation found.
  Ok,
  /// The history provably violates the property.
  Violation,
  /// The checker could not decide (search budget exhausted or the
  /// history's values were too ambiguous to attribute reads).
  Inconclusive,
};

/// Verdict plus a human-readable description of the first problem found.
struct CheckResult {
  Verdict V = Verdict::Ok;
  std::string Reason;

  bool ok() const { return V == Verdict::Ok; }
  bool violation() const { return V == Verdict::Violation; }
};

/// Tunables of the checkers.
struct CheckerConfig {
  /// The workload writes values that are unique per (location, history)
  /// — the fuzz harness's chained-sum updates make duplicate values
  /// vanishingly unlikely. Value-based read attribution (and with it the
  /// aborted-write-visible and serializability checks) needs this; with
  /// ambiguous values those checks degrade to Inconclusive instead of
  /// guessing.
  bool ValuesAreUnique = true;
  /// Enforce real-time order between committed transactions (an attempt
  /// that ended before another began must serialize first). All shipped
  /// backends promise strict serializability, so on by default.
  bool RealTimeOrder = true;
  /// Backtracking budget for the serialization search, in graph-node
  /// visits. Exhaustion yields Inconclusive, never a false verdict.
  uint64_t SearchBudget = 1 << 20;
};

/// Cheap, search-free invariants. See file comment.
CheckResult checkInvariants(const History &H,
                            const CheckerConfig &Cfg = CheckerConfig());

/// Snapshot consistency of every attempt (committed and aborted).
CheckResult checkOpacity(const History &H,
                         const CheckerConfig &Cfg = CheckerConfig());

/// Final-state serializability of the committed transactions.
CheckResult
checkCommittedSerializable(const History &H,
                           const CheckerConfig &Cfg = CheckerConfig());

/// Runs all three checkers, returning the first non-Ok result (violations
/// beat inconclusives).
CheckResult checkAll(const History &H,
                     const CheckerConfig &Cfg = CheckerConfig());

/// Quiescence invariant: no stripe of \p Locks may still be locked once
/// all workers have joined. \p Why receives the offending stripe on
/// failure when non-null.
bool lockTableQuiescent(LockTable &Locks, std::string *Why = nullptr);

} // namespace gstm

#endif // GSTM_CHECK_CHECKER_H
