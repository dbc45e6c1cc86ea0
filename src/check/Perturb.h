//===- check/Perturb.h - Seeded schedule perturbation ---------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SchedulePerturber rides the TxAccessObserver hook surface to inject
/// seeded, deterministic-per-thread yield points at every instrumented STM
/// event (attempt begin, load, store, lock acquire). On hosts with fewer
/// cores than worker threads this is what actually explores distinct
/// interleavings: the OS alone would run each transaction to completion
/// within its scheduling quantum and the fuzzer would only ever see the
/// serial schedule. Different seeds displace the yields to different
/// accesses, so iterating seeds sweeps the schedule space.
///
/// The perturber tees: it forwards every event to a downstream observer
/// (normally the HistoryRecorder) after the optional yield, so recording
/// and perturbation stack without the runtimes knowing about either.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_PERTURB_H
#define GSTM_CHECK_PERTURB_H

#include "stm/Observer.h"
#include "support/Ids.h"
#include "support/SplitMix64.h"

#include <cassert>
#include <thread>
#include <vector>

namespace gstm {

/// Injects seeded yields at instrumented STM points, then forwards to a
/// downstream TxAccessObserver.
class SchedulePerturber : public TxAccessObserver {
public:
  /// Each access yields with probability 2^-YieldShift, YieldShift in
  /// [0, 63]; per-thread RNG streams are derived from \p Seed so a seed
  /// fully determines where the kicks land (modulo OS scheduling).
  SchedulePerturber(unsigned NumThreads, uint64_t Seed,
                    TxAccessObserver *Next = nullptr,
                    unsigned YieldShift = 2)
      : Next(Next) {
    assert(YieldShift < 64 && "YieldShift must be in [0, 63]");
    Mask = (uint64_t{1} << YieldShift) - 1;
    Streams.reserve(NumThreads);
    SplitMix64 Root(Seed ^ 0x5bf03635d1a2b1ffULL);
    for (unsigned I = 0; I < NumThreads; ++I)
      Streams.emplace_back(Root.split());
  }

  void onTxBegin(ThreadId Thread, TxId Tx, uint64_t ReadVersion) override {
    maybeYield(Thread);
    if (Next)
      Next->onTxBegin(Thread, Tx, ReadVersion);
  }
  void onTxLoad(ThreadId Thread, const void *Addr, uint64_t Value,
                uint64_t Version, bool Buffered) override {
    maybeYield(Thread);
    if (Next)
      Next->onTxLoad(Thread, Addr, Value, Version, Buffered);
  }
  void onTxStore(ThreadId Thread, const void *Addr,
                 uint64_t Value) override {
    maybeYield(Thread);
    if (Next)
      Next->onTxStore(Thread, Addr, Value);
  }
  void onLockAcquire(ThreadId Thread, uint64_t LockId) override {
    maybeYield(Thread);
    if (Next)
      Next->onLockAcquire(Thread, LockId);
  }

  uint64_t yieldCount() const {
    uint64_t N = 0;
    for (const Stream &S : Streams)
      N += S.Yields;
    return N;
  }

private:
  struct alignas(64) Stream {
    explicit Stream(SplitMix64 Rng) : Rng(Rng) {}
    SplitMix64 Rng;
    uint64_t Yields = 0;
  };

  void maybeYield(ThreadId Thread) {
    Stream &S = Streams[Thread];
    if ((S.Rng.next() & Mask) == 0) {
      ++S.Yields;
      std::this_thread::yield();
    }
  }

  TxAccessObserver *Next;
  uint64_t Mask;
  std::vector<Stream> Streams;
};

} // namespace gstm

#endif // GSTM_CHECK_PERTURB_H
