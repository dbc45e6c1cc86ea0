//===- stamp/TmRbTree.h - Transactional red-black tree -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transactional red-black tree (CLRS structure with an explicit NIL
/// sentinel node), the backing store of vacation's reservation tables as
/// in STAMP's rbtree.c. Rebalancing writes several nodes near the root,
/// so concurrent updates to nearby keys conflict — the contention shape
/// that makes vacation interesting for the paper's model.
///
/// Transactions provide atomicity, so the code is the sequential
/// algorithm with every field access routed through the STM.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMRBTREE_H
#define GSTM_STAMP_TMRBTREE_H

#include "engine/Tl2.h"
#include "stamp/TmPool.h"
#include "stm/TVar.h"

#include <cstdint>
#include <optional>

namespace gstm {

/// Node of a TmRbTree. Links are pool indices; Color is 0=black, 1=red.
struct TmRbNode {
  TVar<uint64_t> Key;
  TVar<uint64_t> Value;
  TVar<uint32_t> Left;
  TVar<uint32_t> Right;
  TVar<uint32_t> Parent;
  TVar<uint32_t> Color;
};

/// Transactional ordered map with unique 64-bit keys.
class TmRbTree {
public:
  using Pool = TmPool<TmRbNode>;

  /// Creates an empty tree; allocates its NIL sentinel from \p Nodes.
  /// Single-threaded (uses direct stores).
  explicit TmRbTree(Pool &Nodes);

  /// Inserts (\p Key, \p Value); returns false when the key exists.
  /// With \p Spare, the new node is *Spare when that holds one, and a
  /// freshly allocated node is stored there otherwise: a caller that keeps
  /// the slot across the attempts of one transaction allocates at most
  /// one node however often the transaction aborts.
  bool insert(Tl2Txn &Tx, uint64_t Key, uint64_t Value,
              uint32_t *Spare = nullptr);

  /// Returns the value mapped to \p Key, if any.
  std::optional<uint64_t> find(Tl2Txn &Tx, uint64_t Key);

  /// Overwrites the value of an existing key; false when absent.
  bool update(Tl2Txn &Tx, uint64_t Key, uint64_t Value);

  /// Removes \p Key; returns its value if present. Nodes are not
  /// recycled (TmPool memory discipline).
  std::optional<uint64_t> remove(Tl2Txn &Tx, uint64_t Key);

  /// Number of keys (O(1): maintained counter).
  uint64_t size(Tl2Txn &Tx) { return Tx.load(Count); }
  uint64_t sizeDirect() const { return Count.loadDirect(); }

  /// Checks every red-black invariant plus key ordering with direct
  /// (non-transactional) reads. Quiescent use only. Exposed so tests and
  /// workload verify() can assert structural integrity after a run.
  bool validateDirect() const;

  /// In-order traversal with direct reads (quiescent use only).
  template <typename Fn> void forEachDirect(Fn &&Callback) const {
    forEachDirectFrom(Root.loadDirect(), Callback);
  }

private:
  static constexpr uint32_t Black = 0;
  static constexpr uint32_t Red = 1;

  // Transactional field helpers (declared for readability at call sites).
  uint32_t left(Tl2Txn &Tx, uint32_t N) { return Tx.load(P[N].Left); }
  uint32_t right(Tl2Txn &Tx, uint32_t N) { return Tx.load(P[N].Right); }
  uint32_t parent(Tl2Txn &Tx, uint32_t N) { return Tx.load(P[N].Parent); }
  uint32_t color(Tl2Txn &Tx, uint32_t N) { return Tx.load(P[N].Color); }
  uint64_t key(Tl2Txn &Tx, uint32_t N) { return Tx.load(P[N].Key); }

  void rotateLeft(Tl2Txn &Tx, uint32_t X);
  void rotateRight(Tl2Txn &Tx, uint32_t X);
  void insertFixup(Tl2Txn &Tx, uint32_t Z);
  void removeFixup(Tl2Txn &Tx, uint32_t X);
  /// Replaces subtree rooted at \p U with subtree rooted at \p V.
  void transplant(Tl2Txn &Tx, uint32_t U, uint32_t V);
  uint32_t minimum(Tl2Txn &Tx, uint32_t N);
  /// Returns the node holding \p Key or Nil.
  uint32_t findNode(Tl2Txn &Tx, uint64_t Key);

  /// Direct-read recursive validator; returns black height or -1.
  int validateFrom(uint32_t N, uint64_t Lo, uint64_t Hi, bool HasLo,
                   bool HasHi) const;

  template <typename Fn>
  void forEachDirectFrom(uint32_t N, Fn &Callback) const {
    if (N == Nil)
      return;
    forEachDirectFrom(P[N].Left.loadDirect(), Callback);
    Callback(P[N].Key.loadDirect(), P[N].Value.loadDirect());
    forEachDirectFrom(P[N].Right.loadDirect(), Callback);
  }

  Pool &P;
  /// Index of the NIL sentinel (black; its Parent is scratch space for
  /// the CLRS delete fixup).
  uint32_t Nil;
  TVar<uint32_t> Root;
  TVar<uint64_t> Count{0};
};

} // namespace gstm

#endif // GSTM_STAMP_TMRBTREE_H
