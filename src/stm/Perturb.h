//===- stm/Perturb.h - Seeded schedule perturbation -----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SchedulePerturber rides the TxAccessObserver hook surface to inject
/// seeded, deterministic-per-thread yield points at transactional loads
/// and stores: the one in-transaction yield (DESIGN §2, substitution 1).
/// On hosts with fewer cores than worker threads the OS alone would run
/// each transaction to completion within its scheduling quantum, so
/// experiment runs attach one while their workers outnumber the usable
/// CPUs, and the fuzzer attaches one so that iterating seeds sweeps the
/// schedule space. Attempt begins and lock acquires never yield: a yield
/// while holding commit locks aborts every reader of those stripes.
///
/// The perturber tees: it forwards every event to a downstream observer
/// (the fuzzer's HistoryRecorder) after the optional yield, so recording
/// and perturbation stack without the runtimes knowing about either.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_PERTURB_H
#define GSTM_STM_PERTURB_H

#include "stm/Observer.h"
#include "support/Ids.h"
#include "support/SplitMix64.h"

#include <cassert>
#include <thread>
#include <vector>

namespace gstm {

/// Injects seeded yields at transactional loads and stores, then forwards
/// every event to a downstream TxAccessObserver.
class SchedulePerturber : public TxAccessObserver {
public:
  /// Each load or store yields with probability 2^-YieldShift, YieldShift
  /// in [0, 63]; per-thread RNG streams are derived from \p Seed so a seed
  /// fully determines where the kicks land (modulo OS scheduling).
  /// ThreadIds must be below \p NumThreads.
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
    assert(Thread < Streams.size() && "ThreadId past the perturber's streams");
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

#endif // GSTM_STM_PERTURB_H
