//===- core/Replay.cpp ------------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Replay.h"

#include <thread>

using namespace gstm;

void ReplayGate::onTxStart(ThreadId Thread, TxId Tx) {
  TxThreadPair Self = packPair(Tx, Thread);
  for (uint32_t Retry = 0;; ++Retry) {
    size_t At = Cursor.load(std::memory_order_acquire);
    if (At >= Schedule.size())
      return; // past the recorded window: run free
    if (Schedule[At] == Self)
      return; // our turn
    if (Retry >= Cfg.MaxGateRetries) {
      Divergences.fetch_add(1, std::memory_order_relaxed);
      return; // progress guarantee
    }
    std::this_thread::yield();
  }
}

void ReplayGate::onCommit(const CommitEvent &E) {
  size_t At = Cursor.load(std::memory_order_acquire);
  if (At < Schedule.size() && Schedule[At] == packPair(E.Tx, E.Thread))
    Cursor.fetch_add(1, std::memory_order_acq_rel);
  // An off-schedule commit (possible after a forced release) does not
  // advance the cursor; the schedule re-synchronizes when the expected
  // pair commits.
}
