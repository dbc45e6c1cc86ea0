//===- check/Checker.h - History-based STM safety checkers ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety checkers over recorded transactional histories (check/History.h).
/// Guided commit optimization and replay gating reorder and throttle
/// commits; these checkers are the harness that proves such reordering
/// never bought performance with correctness.
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
///  * checkCommittedSerializable — one graph over the committed
///    transactions, sorted once. A read that validated against version V
///    reads from the committed writer of its location with the largest
///    commit version <= V, or the initial value when there is none. That
///    is the interval checkOpacity already requires of every read, and
///    stripe aliasing cannot leave it: TL2 takes its write version while
///    it holds the stripe lock, so an alias can only push V later inside
///    the interval, never past the next writer. Edges run
///    writer -> reader, reader -> the next writer, writer -> next writer,
///    and along a chain of end points sorted by EndSeq that makes T reach
///    U exactly when T ended before U began. The history is serializable
///    in real-time order iff a topological sort places every node. With
///    unique values each read's value must also be its writer's, so an
///    engine that lies about versions is caught as well.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_CHECKER_H
#define GSTM_CHECK_CHECKER_H

#include "check/History.h"
#include "stm/LockTable.h"

#include <cstdint>
#include <string>

namespace gstm {

/// Outcome of one checker pass: Ok, or a violation and a human-readable
/// description of the first problem found.
struct CheckResult {
  std::string Reason;

  bool ok() const { return Reason.empty(); }
  bool violation() const { return !ok(); }
};

// ValuesAreUnique, below, says the workload writes values that are
// unique per (location, history); the fuzz harness's chained-sum updates
// make duplicate values vanishingly unlikely. It switches on the checks
// that judge a read by its value: the aborted-write check and the
// serializability checker's value cross-check. Reads are attributed by
// version either way.

/// Cheap, search-free invariants. See file comment.
CheckResult checkInvariants(const History &H, bool ValuesAreUnique = true);

/// Snapshot consistency of every attempt (committed and aborted).
CheckResult checkOpacity(const History &H);

/// Final-state serializability of the committed transactions, in
/// real-time order: an attempt that ended before another began must
/// serialize first, since every shipped backend promises strict
/// serializability.
CheckResult checkCommittedSerializable(const History &H,
                                       bool ValuesAreUnique = true);

/// Runs all three checkers, returning the first violation.
CheckResult checkAll(const History &H, bool ValuesAreUnique = true);

/// Quiescence invariant: no stripe of \p Locks may still be locked once
/// all workers have joined. \p Why receives the offending stripe on
/// failure when non-null.
bool lockTableQuiescent(LockTable &Locks, std::string *Why = nullptr);

} // namespace gstm

#endif // GSTM_CHECK_CHECKER_H
