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
/// Two checkers, cheapest first:
///
///  * checkInvariants — always-on assertions that need no search: commit
///    versions unique, above the committing attempt's rv and per-thread
///    monotonic; every validated read version within the attempt's
///    snapshot.
///  * checkOpacity — one graph over every attempt, sorted once. Its nodes
///    are the committed transactions and every other attempt that read
///    global state, as a read-only transaction; only committed writes
///    count. A read that validated against version V reads from the
///    committed writer of its location with the largest commit version
///    <= V, or the initial value when there is none, and its value must
///    be the one that writer installed (so a value only an aborted attempt
///    wrote is flagged too). Stripe aliasing cannot leave that interval:
///    TL2 takes its write version while it holds the stripe lock, so an
///    alias can only push V later inside it, never past the next writer. Edges run writer -> reader, reader -> the next writer,
///    writer -> next writer, and along a chain of end points sorted by
///    EndSeq that makes T reach U exactly when T ended before U began.
///    Every attempt saw a consistent snapshot of one serialization in
///    real-time order (opacity, and so strict serializability of the
///    committed transactions) iff a topological sort places every node.
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

/// Cheap, search-free invariants. See file comment.
CheckResult checkInvariants(const History &H);

/// Opacity: one serialization of every attempt, committed or not, in
/// real-time order (an attempt that ended before another began serializes
/// first), under which each attempt read the values it did.
CheckResult checkOpacity(const History &H);

/// Runs both checkers, returning the first violation.
CheckResult checkAll(const History &H);

/// Quiescence invariant: no stripe of \p Locks may still be locked once
/// all workers have joined. \p Why receives the offending stripe on
/// failure when non-null.
bool lockTableQuiescent(LockTable &Locks, std::string *Why = nullptr);

} // namespace gstm

#endif // GSTM_CHECK_CHECKER_H
