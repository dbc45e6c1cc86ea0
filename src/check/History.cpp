//===- check/History.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/History.h"

#include <algorithm>
#include <cassert>

using namespace gstm;

std::vector<const AccessRecord *> AttemptRecord::globalReads() const {
  std::vector<const AccessRecord *> Reads;
  for (const AccessRecord &A : Accesses) {
    if (A.K != AccessRecord::Kind::Load || A.Buffered)
      continue;
    if (std::none_of(Reads.begin(), Reads.end(),
                     [&](const AccessRecord *R) { return R->Addr == A.Addr; }))
      Reads.push_back(&A);
  }
  return Reads;
}

std::vector<std::pair<const void *, uint64_t>>
AttemptRecord::finalWrites() const {
  std::vector<std::pair<const void *, uint64_t>> Writes;
  for (const AccessRecord &A : Accesses) {
    if (A.K != AccessRecord::Kind::Store)
      continue;
    bool Updated = false;
    for (auto &[Addr, Value] : Writes)
      if (Addr == A.Addr) {
        Value = A.Value;
        Updated = true;
        break;
      }
    if (!Updated)
      Writes.emplace_back(A.Addr, A.Value);
  }
  return Writes;
}

size_t History::committedCount() const {
  size_t N = 0;
  for (const AttemptRecord &A : Attempts)
    N += A.committed();
  return N;
}

void HistoryRecorder::onTxBegin(ThreadId Thread, TxId Tx,
                                uint64_t ReadVersion) {
  assert(Thread < PerThread.size() && "thread id out of range");
  ThreadLog &Log = PerThread[Thread];
  // A begin while an attempt is open means the previous attempt's outcome
  // event was suppressed (should not happen with both observers attached);
  // close it as in-flight rather than losing it.
  if (Log.HasOpen)
    finish(Thread, AttemptOutcome::InFlight, 0, false);
  Log.Open = AttemptRecord{};
  Log.Open.Thread = Thread;
  Log.Open.Tx = Tx;
  Log.Open.ReadVersion = ReadVersion;
  Log.Open.BeginSeq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Log.HasOpen = true;
}

void HistoryRecorder::onTxLoad(ThreadId Thread, const void *Addr,
                               uint64_t Value, uint64_t Version,
                               bool Buffered) {
  ThreadLog &Log = PerThread[Thread];
  if (!Log.HasOpen)
    return;
  AccessRecord A;
  A.K = AccessRecord::Kind::Load;
  A.Addr = Addr;
  A.Value = Value;
  A.Version = Version;
  A.Buffered = Buffered;
  Log.Open.Accesses.push_back(A);
}

void HistoryRecorder::onTxStore(ThreadId Thread, const void *Addr,
                                uint64_t Value) {
  ThreadLog &Log = PerThread[Thread];
  if (!Log.HasOpen)
    return;
  AccessRecord A;
  A.K = AccessRecord::Kind::Store;
  A.Addr = Addr;
  A.Value = Value;
  Log.Open.Accesses.push_back(A);
}

void HistoryRecorder::onLockAcquire(ThreadId Thread, uint64_t LockId) {
  ThreadLog &Log = PerThread[Thread];
  if (!Log.HasOpen)
    return;
  AccessRecord A;
  A.K = AccessRecord::Kind::LockAcquire;
  A.LockId = LockId;
  Log.Open.Accesses.push_back(A);
}

void HistoryRecorder::onCommit(const CommitEvent &E) {
  finish(E.Thread, AttemptOutcome::Committed, E.Version, E.ReadOnly);
}

void HistoryRecorder::onAbort(const AbortEvent &E) {
  finish(E.Thread, AttemptOutcome::Aborted, 0, false);
}

void HistoryRecorder::finish(ThreadId Thread, AttemptOutcome Outcome,
                             uint64_t Version, bool ReadOnly) {
  assert(Thread < PerThread.size() && "thread id out of range");
  ThreadLog &Log = PerThread[Thread];
  if (!Log.HasOpen)
    return; // outcome without a recorded begin (observer attached late)
  Log.Open.Outcome = Outcome;
  Log.Open.CommitVersion = Version;
  Log.Open.ReadOnly = ReadOnly;
  Log.Open.EndSeq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Log.Done.push_back(std::move(Log.Open));
  Log.Open = AttemptRecord{};
  Log.HasOpen = false;
}

History HistoryRecorder::take() {
  History H;
  H.Initial = Initial;
  size_t Total = 0;
  for (const ThreadLog &Log : PerThread)
    Total += Log.Done.size() + (Log.HasOpen ? 1 : 0);
  H.Attempts.reserve(Total);
  for (ThreadLog &Log : PerThread) {
    for (AttemptRecord &A : Log.Done)
      H.Attempts.push_back(std::move(A));
    Log.Done.clear();
    if (Log.HasOpen) {
      // A worker died mid-attempt (or the run was cut short): keep the
      // partial attempt so the invariant checkers can still see it.
      Log.Open.EndSeq = NextSeq.load(std::memory_order_relaxed);
      H.Attempts.push_back(std::move(Log.Open));
      Log.Open = AttemptRecord{};
      Log.HasOpen = false;
    }
  }
  NextSeq.store(0, std::memory_order_relaxed);
  std::sort(H.Attempts.begin(), H.Attempts.end(),
            [](const AttemptRecord &A, const AttemptRecord &B) {
              return A.BeginSeq < B.BeginSeq;
            });
  return H;
}
