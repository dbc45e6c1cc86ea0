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
/// An arena of at least one huge page (2 MiB) is allocated 2 MiB-aligned,
/// rounded up to a multiple of 2 MiB and advised MADV_HUGEPAGE before its
/// nodes are constructed, so that transparent huge pages can back it. A
/// descent over a large arena (the OLTP B-tree's 56 MiB, genome's 18 MiB)
/// otherwise visits a different 4 KiB page per node and pays a page walk
/// for most of them, as the TLB covers a few MiB at 4 KiB pages. Where
/// THP is off (`never`), the advice fails or is ignored and the arena
/// gets 4 KiB pages, as before. Smaller arenas are a plain allocation at
/// the node type's alignment. The lock tables stay out of scope: the flat
/// table is 512 KiB, under one huge page, and each shard's table is
/// smaller still.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMPOOL_H
#define GSTM_STAMP_TMPOOL_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <sys/mman.h>

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
      : CapacityPlusNull(Capacity + 1), Nodes(makeArena(Capacity + 1)),
        Next(1) {
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
  /// Arenas of this many bytes or more take the huge-page path.
  static constexpr size_t HugePageBytes = size_t{2} << 20;

  /// Destroys every node, then frees the arena with the alignment it was
  /// allocated with.
  struct ArenaDeleter {
    uint32_t Count;
    std::align_val_t Align;
    void operator()(NodeT *First) const {
      std::destroy_n(First, Count);
      ::operator delete(First, Align);
    }
  };
  using Arena = std::unique_ptr<NodeT[], ArenaDeleter>;

  /// Allocates \p Count value-initialised nodes, on the huge-page path
  /// when they fill at least one huge page.
  static Arena makeArena(uint32_t Count) {
    size_t Bytes = size_t{Count} * sizeof(NodeT);
    const bool Huge = Bytes >= HugePageBytes;
    const std::align_val_t Align{Huge ? HugePageBytes : alignof(NodeT)};
    if (Huge)
      Bytes = (Bytes + HugePageBytes - 1) & ~(HugePageBytes - 1);
    void *Raw = ::operator new(Bytes, Align);
    // Advice only: without THP it fails or is ignored, and the arena is
    // backed by 4 KiB pages.
    if (Huge)
      (void)::madvise(Raw, Bytes, MADV_HUGEPAGE);
    NodeT *First = static_cast<NodeT *>(Raw);
    try {
      std::uninitialized_value_construct_n(First, Count);
    } catch (...) {
      ::operator delete(Raw, Align);
      throw;
    }
    return Arena(First, ArenaDeleter{Count, Align});
  }

  uint32_t CapacityPlusNull;
  Arena Nodes;
  std::atomic<uint32_t> Next;
};

} // namespace gstm

#endif // GSTM_STAMP_TMPOOL_H
