//===- core/Replay.h - Deterministic record/replay (DeSTM-style) ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A record/replay facility in the spirit of DeSTM (Ravichandran,
/// Gavrilovska, Pande, PACT'14), which the paper cites as the
/// *fully deterministic* end of the design space: where guided execution
/// biases runs toward probable commit paths, replay pins the commit order
/// exactly. It reuses the same hooks guided execution plugs into — the
/// commit observer records the (transaction, thread) commit sequence, and
/// the start gate of a replay run blocks every thread whose pair is not
/// next in the recorded schedule.
///
/// The result is useful for debugging (the paper's motivation for DeSTM)
/// and doubles as the strongest possible setting of the paper's
/// determinism spectrum: replayed runs exercise exactly one thread
/// transactional state sequence.
///
/// Caveat: a schedule is only replayable against the same input and
/// workload; transactions absent from the schedule (tail of a run that
/// diverged) are released after MaxGateRetries like the guided gate, so
/// progress is always guaranteed.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_REPLAY_H
#define GSTM_CORE_REPLAY_H

#include "stm/Observer.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gstm {

/// Records the global commit order of a run.
class CommitRecorder : public TxEventObserver {
public:
  void onCommit(const CommitEvent &E) override {
    std::lock_guard<std::mutex> Lock(M);
    Schedule.push_back(packPair(E.Tx, E.Thread));
  }
  void onAbort(const AbortEvent &) override {}

  /// The recorded (transaction, thread) commit sequence.
  std::vector<TxThreadPair> takeSchedule() {
    std::lock_guard<std::mutex> Lock(M);
    return std::move(Schedule);
  }

private:
  std::mutex M;
  std::vector<TxThreadPair> Schedule;
};

/// Tunables of the replay gate.
struct ReplayConfig {
  /// Gate re-checks, one yield apart, before an off-schedule transaction
  /// is released (the progress guarantee; matches the guided gate's k).
  uint32_t MaxGateRetries = 4096;
};

/// Enforces a recorded commit schedule: each thread may only start a
/// transaction when its (transaction, thread) pair is next in line.
class ReplayGate : public StartGate, public TxEventObserver {
public:
  ReplayGate(std::vector<TxThreadPair> Schedule,
             const ReplayConfig &Config = ReplayConfig())
      : Schedule(std::move(Schedule)), Cfg(Config) {}

  void onTxStart(ThreadId Thread, TxId Tx) override;

  // Observer half: commits advance the schedule cursor.
  void onCommit(const CommitEvent &E) override;
  void onAbort(const AbortEvent &) override {}

  /// Position in the schedule (for tests).
  size_t cursor() const { return Cursor.load(std::memory_order_acquire); }
  /// Starts that had to be force-released (off-schedule divergence).
  uint64_t divergences() const {
    return Divergences.load(std::memory_order_relaxed);
  }

private:
  std::vector<TxThreadPair> Schedule;
  ReplayConfig Cfg;
  std::atomic<size_t> Cursor{0};
  std::atomic<uint64_t> Divergences{0};
};

} // namespace gstm

#endif // GSTM_CORE_REPLAY_H
