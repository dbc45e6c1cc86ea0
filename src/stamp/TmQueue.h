//===- stamp/TmQueue.h - Transactional bounded FIFO queue ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded FIFO ring whose head/tail cursors are transactional words —
/// the central contention point of intruder (every worker pops the packet
/// queue) and the work-queue of labyrinth and yada. Like STAMP's queue,
/// concurrent pops always conflict on the head cursor, giving these
/// benchmarks their characteristic high abort rates.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMQUEUE_H
#define GSTM_STAMP_TMQUEUE_H

#include "engine/Tl2.h"
#include "stm/TVar.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>

namespace gstm {

/// Bounded multi-producer multi-consumer transactional queue of 64-bit
/// items.
class TmQueue {
public:
  /// Creates a queue holding at most \p Capacity items.
  explicit TmQueue(uint64_t Capacity)
      : Cap(Capacity), Slots(std::make_unique<TVar<uint64_t>[]>(Capacity)) {
    assert(Capacity > 0 && "queue capacity must be positive");
  }

  /// Appends \p Value; returns false when full.
  bool push(Tl2Txn &Tx, uint64_t Value) {
    uint64_t T = Tx.load(Tail);
    uint64_t H = Tx.load(Head);
    if (T - H >= Cap)
      return false;
    Tx.store(Slots[T % Cap], Value);
    Tx.store(Tail, T + 1);
    return true;
  }

  /// Removes the oldest item, or nullopt when empty.
  std::optional<uint64_t> pop(Tl2Txn &Tx) {
    uint64_t H = Tx.load(Head);
    uint64_t T = Tx.load(Tail);
    if (H == T)
      return std::nullopt;
    uint64_t Value = Tx.load(Slots[H % Cap]);
    Tx.store(Head, H + 1);
    return Value;
  }

  uint64_t size(Tl2Txn &Tx) { return Tx.load(Tail) - Tx.load(Head); }

  /// Non-transactional accessors for setup / quiescent verification.
  void pushDirect(uint64_t Value) {
    uint64_t T = Tail.loadDirect();
    assert(T - Head.loadDirect() < Cap && "queue overflow in setup");
    Slots[T % Cap].storeDirect(Value);
    Tail.storeDirect(T + 1);
  }
  uint64_t sizeDirect() const {
    return Tail.loadDirect() - Head.loadDirect();
  }

private:
  uint64_t Cap;
  std::unique_ptr<TVar<uint64_t>[]> Slots;
  TVar<uint64_t> Head{0};
  TVar<uint64_t> Tail{0};
};

} // namespace gstm

#endif // GSTM_STAMP_TMQUEUE_H
