//===- core/GuideController.cpp --------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/GuideController.h"

#include <bit>
#include <cassert>
#include <chrono>
#include <thread>

using namespace gstm;

namespace {
/// \p Thread's bit in the live-worker mask. Callers keep ThreadIds below
/// 64 (runWorkloadOnce asserts Threads <= StatsShardCount); the mask makes
/// a larger id alias, as the stats shards do, rather than shift past the
/// word.
uint64_t liveBit(ThreadId Thread) {
  assert(Thread < 64 && "the live mask holds one bit per ThreadId");
  return uint64_t{1} << (Thread & 63);
}
} // namespace

GuideController::GuideController(const GuidedPolicy &Policy,
                                 const GuideConfig &Config,
                                 TxEventObserver *Downstream)
    : Policy(Policy), Cfg(Config), Downstream(Downstream) {
  // Pre-size so early aborts don't grow the vector while PendingMutex
  // is held; onCommit's swap recycles buffers from then on.
  PendingAborts.reserve(64);
}

void GuideController::onTxStart(ThreadId Thread, TxId Tx) {
  const uint64_t Bit = liveBit(Thread);
  if (!(LiveMask.load(std::memory_order_relaxed) & Bit))
    LiveMask.fetch_or(Bit, std::memory_order_relaxed);

  GateChecks.fetch_add(1, std::memory_order_relaxed);
  TxThreadPair Self = packPair(Tx, Thread);
  if (Policy.allows(currentState(), Self))
    return;

  Holds.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t Retry = 0; Retry < Cfg.MaxGateRetries; ++Retry) {
    // Every live worker held (this one the latest arrival): no commit can
    // move the current state, so waiting cannot admit us. Release now.
    uint32_t Held = HeldNow.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Held >= static_cast<uint32_t>(std::popcount(
                    LiveMask.load(std::memory_order_relaxed)))) {
      HeldNow.fetch_sub(1, std::memory_order_relaxed);
      AllHeldReleases.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    GateRetries.fetch_add(1, std::memory_order_relaxed);
    // Let the threads that *are* allowed make progress; one of their
    // commits may move the current state to one that admits us.
    if (Cfg.GateSleepMicros == 0)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(
          std::chrono::microseconds(Cfg.GateSleepMicros));
    HeldNow.fetch_sub(1, std::memory_order_relaxed);
    if (Policy.allows(currentState(), Self))
      return;
  }
  // k retries exhausted: release to guarantee progress (paper Sec. V).
  ForcedReleases.fetch_add(1, std::memory_order_relaxed);
}

void GuideController::onThreadExit(ThreadId Thread) {
  LiveMask.fetch_and(~liveBit(Thread), std::memory_order_relaxed);
}

void GuideController::onCommit(const CommitEvent &E) {
  StateTuple Tuple;
  Tuple.Commit = packPair(E.Tx, E.Thread);
  // Keep the PendingMutex critical section to an O(1) buffer swap: the
  // old move-out handed PendingAborts' heap buffer to the tuple, forcing
  // the next onAbort to reallocate under the lock. Swapping with a
  // per-thread scratch vector (capacity retained across commits) keeps
  // both the swap and the steady-state aborts allocation-free.
  static thread_local std::vector<TxThreadPair> Scratch;
  Scratch.clear();
  uint64_t Seq;
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    Scratch.swap(PendingAborts);
    Seq = TupleSeq++;
  }
  Tuple.Aborts.assign(Scratch.begin(), Scratch.end());
  Tuple.canonicalize();

  StateId Resolved = Policy.resolve(Tuple);
  if (Resolved == UnknownState)
    UnknownStates.fetch_add(1, std::memory_order_relaxed);
  else
    KnownStates.fetch_add(1, std::memory_order_relaxed);
  // Publish forward only: the CAS gives up once the word holds a newer
  // tuple. Sequence numbers compare wrap-safely, by the sign of their
  // 32-bit difference.
  const uint64_t Mine = Seq << 32 | Resolved;
  uint64_t Seen = Current.load(std::memory_order_relaxed);
  while (static_cast<int32_t>(static_cast<uint32_t>(Seq - (Seen >> 32))) > 0 &&
         !Current.compare_exchange_weak(Seen, Mine, std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }

  // Tuple-stream hook: null-gated so a detached sink costs one
  // predictable branch, the same discipline as the access observer.
  if (TtsSink *S = Sink.load(std::memory_order_acquire))
    S->observeTuple(E.Thread, Seq, Tuple);

  if (Downstream)
    Downstream->onCommit(E);
}

void GuideController::onAbort(const AbortEvent &E) {
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    PendingAborts.push_back(packPair(E.Tx, E.Thread));
  }
  if (Downstream)
    Downstream->onAbort(E);
}

GuideStats GuideController::stats() const {
  GuideStats S;
  S.GateChecks = GateChecks.load(std::memory_order_relaxed);
  S.Holds = Holds.load(std::memory_order_relaxed);
  S.GateRetries = GateRetries.load(std::memory_order_relaxed);
  S.ForcedReleases = ForcedReleases.load(std::memory_order_relaxed);
  S.AllHeldReleases = AllHeldReleases.load(std::memory_order_relaxed);
  S.UnknownStates = UnknownStates.load(std::memory_order_relaxed);
  S.KnownStates = KnownStates.load(std::memory_order_relaxed);
  return S;
}
