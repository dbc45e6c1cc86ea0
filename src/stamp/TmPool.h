//===- stamp/TmPool.h - Node pool for transactional structures -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-capacity node arena used by the transactional containers.
///
/// Memory management under speculation follows the STAMP discipline:
/// nodes are allocated with a thread-safe bump pointer (an aborted
/// transaction simply wastes its nodes) and nothing is freed until the
/// concurrent phase ends — freeing a node another speculative reader may
/// still dereference would be a use-after-free, so unlinked nodes stay
/// allocated until teardown. Index 0 is reserved as the null sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMPOOL_H
#define GSTM_STAMP_TMPOOL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace gstm {

/// Index-addressed arena of default-constructed nodes.
///
/// Containers link nodes by 32-bit pool index rather than raw pointer so
/// links fit in one TVar word alongside tag bits if needed.
template <typename NodeT> class TmPool {
public:
  static constexpr uint32_t Null = 0;

  /// Creates a pool able to hand out \p Capacity nodes (excluding the
  /// null sentinel at index 0), so \p Capacity must be below UINT32_MAX.
  explicit TmPool(uint32_t Capacity)
      : CapacityPlusNull(Capacity + 1),
        Nodes(std::make_unique<NodeT[]>(Capacity + 1)), Next(1) {
    assert(Capacity < UINT32_MAX && "capacity + 1 must fit 32 bits");
  }

  /// Allocates one node; returns its index. Exhaustion is a workload
  /// sizing bug (pools must budget for nodes wasted by aborted
  /// transactions), so it terminates loudly rather than corrupting the
  /// heap: speculative readers may already hold indices near the end.
  uint32_t allocate() {
    // stm-lint: allow(R1) STAMP pool discipline: the bump pointer is
    // monotonic, so an aborted transaction merely leaks its index — no
    // rollback is needed and no other txn can observe a torn state.
    uint32_t Index = Next.fetch_add(1, std::memory_order_relaxed);
    if (Index >= CapacityPlusNull) {
      // stm-lint: allow(R2) exhaustion is a fatal sizing bug; the process
      // terminates here, so irrevocability is moot.
      std::fprintf(stderr,
                   "fatal: TmPool exhausted (capacity %u); size the pool "
                   "from the workload parameters with abort headroom\n",
                   CapacityPlusNull - 1);
      // stm-lint: allow(R2) deliberate loud termination on exhaustion.
      std::abort();
    }
    return Index;
  }

  /// allocate(), through an optional spare slot: returns *\p Spare when
  /// it holds a node, and otherwise allocates one and records it there.
  /// The caller keeps the slot across the attempts of one transaction and
  /// drops it once that commits, so a transaction that aborts N times
  /// leaks one node per slot instead of N.
  uint32_t allocateOrReuse(uint32_t *Spare) {
    if (!Spare)
      return allocate();
    // stm-lint: allow(R1) the slot is the caller's, outside the
    // transaction. Reuse is safe under TL2: writes are buffered, so an
    // aborted attempt never published the node and no reader can reach it.
    if (*Spare == Null)
      *Spare = allocate();
    return *Spare;
  }

  NodeT &operator[](uint32_t Index) {
    assert(Index != Null && Index < CapacityPlusNull && "bad pool index");
    return Nodes[Index];
  }
  const NodeT &operator[](uint32_t Index) const {
    assert(Index != Null && Index < CapacityPlusNull && "bad pool index");
    return Nodes[Index];
  }

  /// Nodes handed out so far.
  uint32_t used() const {
    // stm-lint: allow(R1) monotonic high-water mark; an approximate read
    // is fine anywhere, including inside a transaction body.
    return Next.load(std::memory_order_relaxed) - 1;
  }
  uint32_t capacity() const { return CapacityPlusNull - 1; }

private:
  uint32_t CapacityPlusNull;
  std::unique_ptr<NodeT[]> Nodes;
  std::atomic<uint32_t> Next;
};

} // namespace gstm

#endif // GSTM_STAMP_TMPOOL_H
