//===- tmds/TmBTree.h - Transactional B-tree map -------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transactional B-tree map (CLRS structure: keys and values in every
/// node, minimum degree MinDegree) with unique 64-bit keys — the
/// database-shaped index of the OLTP tier. Wide nodes mean short
/// traversals and multi-key nodes shared by many keys, so unrelated keys
/// that land in one node conflict — a coarser, more write-clustered
/// contention shape than the skiplist's pointer chains.
///
/// Transactions provide atomicity, so the code is the sequential
/// algorithm — preemptive-split top-down insert, full CLRS delete with
/// borrow/merge — with every field access routed through the backend
/// policy (tmds/TmBackend.h); the same source instantiates over TL2 and
/// LibTm. Merged-away nodes are unlinked but never recycled (TmPool
/// discipline: a speculative reader may still hold their indices).
/// insertDirect() runs the same insert code on direct accesses, for a
/// preload before any transaction starts.
///
/// The element count lives in per-thread stripes, as in TmSkipList and
/// for the same reason: one global counter cell would serialize every
/// mutating transaction through a single stripe.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_TMDS_TMBTREE_H
#define GSTM_TMDS_TMBTREE_H

#include "stamp/TmPool.h"
#include "tmds/TmBackend.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace gstm {

/// Node of a TmBTree. Children are pool indices; leaves keep them Null.
template <typename B, unsigned MaxKeysN> struct TmBTreeNode {
  typename B::template Cell<uint32_t> NumKeys;
  typename B::template Cell<uint32_t> Leaf; // 0 / 1
  typename B::template Cell<uint64_t> Keys[MaxKeysN];
  typename B::template Cell<uint64_t> Vals[MaxKeysN];
  typename B::template Cell<uint32_t> Children[MaxKeysN + 1];
};

/// Transactional ordered map with unique 64-bit keys, templated over an
/// STM backend policy (Tl2Backend / LibTmBackend).
template <typename B> class TmBTree {
public:
  /// CLRS minimum degree: nodes hold MinDegree-1 .. 2*MinDegree-1 keys
  /// (root exempt below the minimum).
  static constexpr unsigned MinDegree = 8;
  static constexpr unsigned MaxKeys = 2 * MinDegree - 1;
  /// Size-counter stripes (power of two; threads map on modulo).
  static constexpr unsigned SizeStripes = 64;

  using Txn = typename B::Txn;
  using Node = TmBTreeNode<B, MaxKeys>;
  using Pool = TmPool<Node>;

  /// Creates an empty tree; allocates its root leaf from \p Nodes.
  /// Single-threaded (uses direct stores).
  explicit TmBTree(Pool &Nodes) : P(Nodes) {
    uint32_t R = P.allocate();
    B::storeDirect(P[R].NumKeys, uint32_t{0});
    B::storeDirect(P[R].Leaf, uint32_t{1});
    B::storeDirect(Root, R);
  }

  /// Returns the value mapped to \p Key, if any.
  std::optional<uint64_t> find(Txn &Tx, uint64_t Key) {
    uint32_t N = B::load(Tx, Root);
    for (;;) {
      uint32_t K = B::load(Tx, P[N].NumKeys);
      uint32_t I = 0;
      while (I < K && B::load(Tx, P[N].Keys[I]) < Key)
        ++I;
      if (I < K && B::load(Tx, P[N].Keys[I]) == Key)
        return B::load(Tx, P[N].Vals[I]);
      if (B::load(Tx, P[N].Leaf))
        return std::nullopt;
      N = B::load(Tx, P[N].Children[I]);
    }
  }

  bool contains(Txn &Tx, uint64_t Key) { return find(Tx, Key).has_value(); }

  /// Inserts (\p Key, \p Value); returns false when the key exists.
  /// A duplicate probe may still split full nodes on the way down
  /// (preemptive-split discipline) — contents are unchanged either way.
  bool insert(Txn &Tx, uint64_t Key, uint64_t Value) {
    return insertAt(Tx, Key, Value);
  }

  /// insert() with direct loads and stores, for quiescent use only (a
  /// preload before any transaction runs). The same code makes the same
  /// splits in the same allocation order and bumps size stripe 0, so it
  /// builds the tree a thread-0 transaction would, cell for cell.
  bool insertDirect(uint64_t Key, uint64_t Value) {
    DirectAccess Direct;
    return insertAt(Direct, Key, Value);
  }

  /// Most pool nodes an insert-only load of \p Keys keys takes: every
  /// node it allocates stays in the tree, and every node but the root
  /// holds at least MinDegree-1 keys.
  static constexpr uint64_t nodesFor(uint64_t Keys) {
    return Keys / (MinDegree - 1) + 1;
  }

  /// Overwrites the value of an existing key; false when absent.
  bool update(Txn &Tx, uint64_t Key, uint64_t Value) {
    uint32_t N = B::load(Tx, Root);
    for (;;) {
      uint32_t K = B::load(Tx, P[N].NumKeys);
      uint32_t I = 0;
      while (I < K && B::load(Tx, P[N].Keys[I]) < Key)
        ++I;
      if (I < K && B::load(Tx, P[N].Keys[I]) == Key) {
        B::store(Tx, P[N].Vals[I], Value);
        return true;
      }
      if (B::load(Tx, P[N].Leaf))
        return false;
      N = B::load(Tx, P[N].Children[I]);
    }
  }

  /// Removes \p Key; returns its value if present.
  std::optional<uint64_t> remove(Txn &Tx, uint64_t Key) {
    uint32_t R = B::load(Tx, Root);
    std::optional<uint64_t> Removed = removeRec(Tx, R, Key);
    // Shrink an emptied non-leaf root (its single child absorbed a
    // root-level merge).
    R = B::load(Tx, Root);
    if (B::load(Tx, P[R].NumKeys) == 0 && !B::load(Tx, P[R].Leaf))
      B::store(Tx, Root, B::load(Tx, P[R].Children[0]));
    if (Removed)
      bumpSize(Tx, ~uint64_t{0}); // -1 in wrap-around arithmetic
    return Removed;
  }

  /// Range scan: visits up to \p MaxCount entries with key >= \p Start in
  /// ascending order, accumulating their values into \p ValueSum.
  /// Returns the number visited.
  size_t scan(Txn &Tx, uint64_t Start, size_t MaxCount, uint64_t &ValueSum) {
    size_t Taken = 0;
    scanRec(Tx, B::load(Tx, Root), Start, MaxCount, Taken, ValueSum);
    return Taken;
  }

  /// Number of keys: sum of the size stripes (reads all of them — use
  /// sparingly inside transactions).
  uint64_t size(Txn &Tx) {
    uint64_t Total = 0;
    for (unsigned I = 0; I < SizeStripes; ++I)
      Total += B::load(Tx, Stripes[I]);
    return Total;
  }
  uint64_t sizeDirect() const {
    uint64_t Total = 0;
    for (unsigned I = 0; I < SizeStripes; ++I)
      Total += B::loadDirect(Stripes[I]);
    return Total;
  }

  /// Checks every structural invariant with direct reads (quiescent use
  /// only): in-node and cross-subtree key ordering, occupancy bounds
  /// (root exempt), uniform leaf depth, and stripe total == key count.
  bool validateDirect() const {
    uint32_t R = B::loadDirect(Root);
    uint64_t Count = 0;
    int LeafDepth = -1;
    if (!validateFrom(R, 0, ~uint64_t{0}, /*IsRoot=*/true, 0, LeafDepth,
                      Count))
      return false;
    return sizeDirect() == Count;
  }

  /// Ascending (key, value) traversal with direct reads (quiescent use
  /// only).
  template <typename Fn> void forEachDirect(Fn &&Callback) const {
    forEachDirectFrom(B::loadDirect(Root), Callback);
  }

  /// Visits (observer address, raw word) of every cell the structure
  /// owns — root link, size stripes, and every pool node handed out so
  /// far. Quiescent use only; lets the check harness register initials.
  template <typename Fn> void forEachCellDirect(Fn &&Callback) const {
    Callback(B::cellAddr(Root), B::cellRaw(Root));
    for (unsigned I = 0; I < SizeStripes; ++I)
      Callback(B::cellAddr(Stripes[I]), B::cellRaw(Stripes[I]));
    for (uint32_t N = 1; N <= P.used(); ++N) {
      Callback(B::cellAddr(P[N].NumKeys), B::cellRaw(P[N].NumKeys));
      Callback(B::cellAddr(P[N].Leaf), B::cellRaw(P[N].Leaf));
      for (unsigned I = 0; I < MaxKeys; ++I) {
        Callback(B::cellAddr(P[N].Keys[I]), B::cellRaw(P[N].Keys[I]));
        Callback(B::cellAddr(P[N].Vals[I]), B::cellRaw(P[N].Vals[I]));
      }
      for (unsigned I = 0; I <= MaxKeys; ++I)
        Callback(B::cellAddr(P[N].Children[I]),
                 B::cellRaw(P[N].Children[I]));
    }
  }

  /// Post-run lock-residue probe over every owned cell (quiescent use
  /// only): true when some cell's lock metadata is still held.
  bool anyCellLockedDirect(typename B::Stm &S) const {
    bool Residue = B::cellLocked(S, Root);
    for (unsigned I = 0; I < SizeStripes; ++I)
      Residue |= B::cellLocked(S, Stripes[I]);
    for (uint32_t N = 1; N <= P.used(); ++N) {
      Residue |= B::cellLocked(S, P[N].NumKeys);
      Residue |= B::cellLocked(S, P[N].Leaf);
      for (unsigned I = 0; I < MaxKeys; ++I) {
        Residue |= B::cellLocked(S, P[N].Keys[I]);
        Residue |= B::cellLocked(S, P[N].Vals[I]);
      }
      for (unsigned I = 0; I <= MaxKeys; ++I)
        Residue |= B::cellLocked(S, P[N].Children[I]);
    }
    return Residue;
  }

private:
  // Field helpers (declared for readability at call sites). Like the
  // insert path, they take a `Txn &` or a DirectAccess tag.
  template <typename TxnOrDirect> uint32_t nk(TxnOrDirect &Tx, uint32_t N) {
    return B::load(Tx, P[N].NumKeys);
  }
  template <typename TxnOrDirect> bool leaf(TxnOrDirect &Tx, uint32_t N) {
    return B::load(Tx, P[N].Leaf) != 0;
  }
  template <typename TxnOrDirect>
  uint64_t key(TxnOrDirect &Tx, uint32_t N, uint32_t I) {
    return B::load(Tx, P[N].Keys[I]);
  }
  template <typename TxnOrDirect>
  uint64_t val(TxnOrDirect &Tx, uint32_t N, uint32_t I) {
    return B::load(Tx, P[N].Vals[I]);
  }
  template <typename TxnOrDirect>
  uint32_t child(TxnOrDirect &Tx, uint32_t N, uint32_t I) {
    return B::load(Tx, P[N].Children[I]);
  }

  /// The insert path; \p Tx is a `Txn &` or a DirectAccess tag.
  template <typename TxnOrDirect>
  bool insertAt(TxnOrDirect &Tx, uint64_t Key, uint64_t Value) {
    uint32_t R = B::load(Tx, Root);
    if (nk(Tx, R) == MaxKeys) {
      uint32_t NewRoot = P.allocate();
      B::store(Tx, P[NewRoot].NumKeys, uint32_t{0});
      B::store(Tx, P[NewRoot].Leaf, uint32_t{0});
      B::store(Tx, P[NewRoot].Children[0], R);
      splitChild(Tx, NewRoot, 0, R);
      B::store(Tx, Root, NewRoot);
      R = NewRoot;
    }
    if (!insertNonFull(Tx, R, Key, Value))
      return false;
    bumpSize(Tx, uint64_t{1});
    return true;
  }

  /// Splits the full child \p Y (= child \p I of \p X, MaxKeys keys)
  /// around its median, which moves up into \p X.
  template <typename TxnOrDirect>
  void splitChild(TxnOrDirect &Tx, uint32_t X, uint32_t I, uint32_t Y) {
    uint32_t Z = P.allocate();
    bool YLeaf = leaf(Tx, Y);
    B::store(Tx, P[Z].Leaf, uint32_t{YLeaf ? 1u : 0u});
    B::store(Tx, P[Z].NumKeys, uint32_t{MinDegree - 1});
    for (uint32_t J = 0; J < MinDegree - 1; ++J) {
      B::store(Tx, P[Z].Keys[J], key(Tx, Y, J + MinDegree));
      B::store(Tx, P[Z].Vals[J], val(Tx, Y, J + MinDegree));
    }
    if (!YLeaf)
      for (uint32_t J = 0; J < MinDegree; ++J)
        B::store(Tx, P[Z].Children[J], child(Tx, Y, J + MinDegree));
    B::store(Tx, P[Y].NumKeys, uint32_t{MinDegree - 1});

    uint32_t XK = nk(Tx, X);
    for (uint32_t J = XK; J > I; --J)
      B::store(Tx, P[X].Children[J + 1], child(Tx, X, J));
    B::store(Tx, P[X].Children[I + 1], Z);
    for (uint32_t J = XK; J > I; --J) {
      B::store(Tx, P[X].Keys[J], key(Tx, X, J - 1));
      B::store(Tx, P[X].Vals[J], val(Tx, X, J - 1));
    }
    B::store(Tx, P[X].Keys[I], key(Tx, Y, MinDegree - 1));
    B::store(Tx, P[X].Vals[I], val(Tx, Y, MinDegree - 1));
    B::store(Tx, P[X].NumKeys, XK + 1);
  }

  /// Top-down insert into a node guaranteed non-full; false on duplicate.
  template <typename TxnOrDirect>
  bool insertNonFull(TxnOrDirect &Tx, uint32_t N, uint64_t Key,
                     uint64_t Value) {
    for (;;) {
      uint32_t K = nk(Tx, N);
      uint32_t I = K;
      while (I > 0 && key(Tx, N, I - 1) > Key)
        --I;
      if (I > 0 && key(Tx, N, I - 1) == Key)
        return false;
      if (leaf(Tx, N)) {
        for (uint32_t J = K; J > I; --J) {
          B::store(Tx, P[N].Keys[J], key(Tx, N, J - 1));
          B::store(Tx, P[N].Vals[J], val(Tx, N, J - 1));
        }
        B::store(Tx, P[N].Keys[I], Key);
        B::store(Tx, P[N].Vals[I], Value);
        B::store(Tx, P[N].NumKeys, K + 1);
        return true;
      }
      uint32_t C = child(Tx, N, I);
      if (nk(Tx, C) == MaxKeys) {
        splitChild(Tx, N, I, C);
        uint64_t Mid = key(Tx, N, I);
        if (Mid == Key)
          return false;
        if (Key > Mid)
          ++I;
        C = child(Tx, N, I);
      }
      N = C;
    }
  }

  /// CLRS delete from the subtree rooted at \p N, which is guaranteed to
  /// hold at least MinDegree keys unless it is the root.
  std::optional<uint64_t> removeRec(Txn &Tx, uint32_t N, uint64_t Key) {
    for (;;) {
      uint32_t K = nk(Tx, N);
      uint32_t I = 0;
      while (I < K && key(Tx, N, I) < Key)
        ++I;
      bool Hit = I < K && key(Tx, N, I) == Key;
      bool IsLeaf = leaf(Tx, N);
      if (Hit && IsLeaf) {
        uint64_t Old = val(Tx, N, I);
        for (uint32_t J = I; J + 1 < K; ++J) {
          B::store(Tx, P[N].Keys[J], key(Tx, N, J + 1));
          B::store(Tx, P[N].Vals[J], val(Tx, N, J + 1));
        }
        B::store(Tx, P[N].NumKeys, K - 1);
        return Old;
      }
      if (Hit) {
        uint32_t C = child(Tx, N, I);     // predecessor subtree
        uint32_t D = child(Tx, N, I + 1); // successor subtree
        if (nk(Tx, C) >= MinDegree) {
          // Replace with the in-order predecessor and delete it below.
          auto [Pk, Pv] = maxOf(Tx, C);
          uint64_t Old = val(Tx, N, I);
          B::store(Tx, P[N].Keys[I], Pk);
          B::store(Tx, P[N].Vals[I], Pv);
          removeRec(Tx, C, Pk);
          return Old;
        }
        if (nk(Tx, D) >= MinDegree) {
          auto [Sk, Sv] = minOf(Tx, D);
          uint64_t Old = val(Tx, N, I);
          B::store(Tx, P[N].Keys[I], Sk);
          B::store(Tx, P[N].Vals[I], Sv);
          removeRec(Tx, D, Sk);
          return Old;
        }
        // Both minimal: merge around key I, then delete from the merged
        // child (root shrink, if this emptied the root, happens in
        // remove()).
        mergeChildren(Tx, N, I);
        N = C;
        continue;
      }
      if (IsLeaf)
        return std::nullopt; // absent
      uint32_t C = child(Tx, N, I);
      if (nk(Tx, C) == MinDegree - 1)
        C = fillChild(Tx, N, I);
      N = C;
    }
  }

  /// (key, value) of the largest entry in the subtree at \p N.
  std::pair<uint64_t, uint64_t> maxOf(Txn &Tx, uint32_t N) {
    while (!leaf(Tx, N))
      N = child(Tx, N, nk(Tx, N));
    uint32_t K = nk(Tx, N);
    return {key(Tx, N, K - 1), val(Tx, N, K - 1)};
  }

  /// (key, value) of the smallest entry in the subtree at \p N.
  std::pair<uint64_t, uint64_t> minOf(Txn &Tx, uint32_t N) {
    while (!leaf(Tx, N))
      N = child(Tx, N, 0);
    return {key(Tx, N, 0), val(Tx, N, 0)};
  }

  /// Grows child \p I of \p N (at MinDegree-1 keys) to at least
  /// MinDegree keys by borrowing from a sibling or merging; returns the
  /// node to descend into.
  uint32_t fillChild(Txn &Tx, uint32_t N, uint32_t I) {
    uint32_t K = nk(Tx, N);
    if (I > 0 && nk(Tx, child(Tx, N, I - 1)) >= MinDegree) {
      borrowFromLeft(Tx, N, I);
      return child(Tx, N, I);
    }
    if (I < K && nk(Tx, child(Tx, N, I + 1)) >= MinDegree) {
      borrowFromRight(Tx, N, I);
      return child(Tx, N, I);
    }
    if (I < K) {
      uint32_t C = child(Tx, N, I);
      mergeChildren(Tx, N, I);
      return C;
    }
    uint32_t C = child(Tx, N, I - 1);
    mergeChildren(Tx, N, I - 1);
    return C;
  }

  /// Rotates one entry through the separator: left sibling's last entry
  /// moves up into \p N, the separator moves down into child \p I.
  void borrowFromLeft(Txn &Tx, uint32_t N, uint32_t I) {
    uint32_t C = child(Tx, N, I);
    uint32_t L = child(Tx, N, I - 1);
    uint32_t CK = nk(Tx, C);
    uint32_t LK = nk(Tx, L);
    for (uint32_t J = CK; J > 0; --J) {
      B::store(Tx, P[C].Keys[J], key(Tx, C, J - 1));
      B::store(Tx, P[C].Vals[J], val(Tx, C, J - 1));
    }
    B::store(Tx, P[C].Keys[0], key(Tx, N, I - 1));
    B::store(Tx, P[C].Vals[0], val(Tx, N, I - 1));
    if (!leaf(Tx, C)) {
      for (uint32_t J = CK + 1; J > 0; --J)
        B::store(Tx, P[C].Children[J], child(Tx, C, J - 1));
      B::store(Tx, P[C].Children[0], child(Tx, L, LK));
    }
    B::store(Tx, P[N].Keys[I - 1], key(Tx, L, LK - 1));
    B::store(Tx, P[N].Vals[I - 1], val(Tx, L, LK - 1));
    B::store(Tx, P[L].NumKeys, LK - 1);
    B::store(Tx, P[C].NumKeys, CK + 1);
  }

  /// Mirror of borrowFromLeft for the right sibling.
  void borrowFromRight(Txn &Tx, uint32_t N, uint32_t I) {
    uint32_t C = child(Tx, N, I);
    uint32_t R = child(Tx, N, I + 1);
    uint32_t CK = nk(Tx, C);
    uint32_t RK = nk(Tx, R);
    B::store(Tx, P[C].Keys[CK], key(Tx, N, I));
    B::store(Tx, P[C].Vals[CK], val(Tx, N, I));
    B::store(Tx, P[N].Keys[I], key(Tx, R, 0));
    B::store(Tx, P[N].Vals[I], val(Tx, R, 0));
    for (uint32_t J = 0; J + 1 < RK; ++J) {
      B::store(Tx, P[R].Keys[J], key(Tx, R, J + 1));
      B::store(Tx, P[R].Vals[J], val(Tx, R, J + 1));
    }
    if (!leaf(Tx, C)) {
      B::store(Tx, P[C].Children[CK + 1], child(Tx, R, 0));
      for (uint32_t J = 0; J < RK; ++J)
        B::store(Tx, P[R].Children[J], child(Tx, R, J + 1));
    }
    B::store(Tx, P[R].NumKeys, RK - 1);
    B::store(Tx, P[C].NumKeys, CK + 1);
  }

  /// Merges child \p I, separator key \p I, and child \p I+1 into child
  /// \p I (both children hold MinDegree-1 keys). The right child is
  /// unlinked but not recycled.
  void mergeChildren(Txn &Tx, uint32_t N, uint32_t I) {
    uint32_t C = child(Tx, N, I);
    uint32_t D = child(Tx, N, I + 1);
    uint32_t K = nk(Tx, N);
    B::store(Tx, P[C].Keys[MinDegree - 1], key(Tx, N, I));
    B::store(Tx, P[C].Vals[MinDegree - 1], val(Tx, N, I));
    for (uint32_t J = 0; J < MinDegree - 1; ++J) {
      B::store(Tx, P[C].Keys[J + MinDegree], key(Tx, D, J));
      B::store(Tx, P[C].Vals[J + MinDegree], val(Tx, D, J));
    }
    if (!leaf(Tx, C))
      for (uint32_t J = 0; J < MinDegree; ++J)
        B::store(Tx, P[C].Children[J + MinDegree], child(Tx, D, J));
    B::store(Tx, P[C].NumKeys, uint32_t{MaxKeys});
    for (uint32_t J = I; J + 1 < K; ++J) {
      B::store(Tx, P[N].Keys[J], key(Tx, N, J + 1));
      B::store(Tx, P[N].Vals[J], val(Tx, N, J + 1));
    }
    for (uint32_t J = I + 1; J < K; ++J)
      B::store(Tx, P[N].Children[J], child(Tx, N, J + 1));
    B::store(Tx, P[N].NumKeys, K - 1);
  }

  void scanRec(Txn &Tx, uint32_t N, uint64_t Start, size_t MaxCount,
               size_t &Taken, uint64_t &ValueSum) {
    if (N == Pool::Null || Taken >= MaxCount)
      return;
    uint32_t K = nk(Tx, N);
    bool IsLeaf = leaf(Tx, N);
    for (uint32_t I = 0; I < K && Taken < MaxCount; ++I) {
      uint64_t Ki = key(Tx, N, I);
      // Child I holds keys below Ki; skip it when the whole subtree is
      // below the scan start.
      if (!IsLeaf && Ki >= Start)
        scanRec(Tx, child(Tx, N, I), Start, MaxCount, Taken, ValueSum);
      if (Taken >= MaxCount)
        return;
      if (Ki >= Start) {
        ValueSum += val(Tx, N, I);
        ++Taken;
      }
    }
    if (!IsLeaf && Taken < MaxCount)
      scanRec(Tx, child(Tx, N, K), Start, MaxCount, Taken, ValueSum);
  }

  template <typename TxnOrDirect>
  void bumpSize(TxnOrDirect &Tx, uint64_t Delta) {
    auto &Stripe =
        Stripes[static_cast<size_t>(Tx.threadId()) & (SizeStripes - 1)];
    B::store(Tx, Stripe, B::load(Tx, Stripe) + Delta);
  }

  /// Direct-read recursive validator. Keys of the subtree at \p N must
  /// lie in [\p Lo, \p Hi]; \p LeafDepth pins the uniform leaf depth;
  /// \p Count accumulates keys seen.
  bool validateFrom(uint32_t N, uint64_t Lo, uint64_t Hi, bool IsRoot,
                    int Depth, int &LeafDepth, uint64_t &Count) const {
    if (N == Pool::Null)
      return false;
    uint32_t K = B::loadDirect(P[N].NumKeys);
    bool IsLeaf = B::loadDirect(P[N].Leaf) != 0;
    if (K > MaxKeys)
      return false;
    if (!IsRoot && K < MinDegree - 1)
      return false;
    if (IsRoot && !IsLeaf && K == 0)
      return false; // non-leaf root must separate something
    uint64_t Prev = Lo;
    bool HavePrev = false;
    for (uint32_t I = 0; I < K; ++I) {
      uint64_t Ki = B::loadDirect(P[N].Keys[I]);
      if (Ki < Lo || Ki > Hi)
        return false;
      if ((HavePrev || I > 0) && Ki <= Prev)
        return false;
      Prev = Ki;
      HavePrev = true;
    }
    Count += K;
    if (IsLeaf) {
      if (LeafDepth < 0)
        LeafDepth = Depth;
      return LeafDepth == Depth;
    }
    for (uint32_t I = 0; I <= K; ++I) {
      // Child I's keys sit strictly between the neighbouring separators.
      uint64_t CLo = I == 0 ? Lo : B::loadDirect(P[N].Keys[I - 1]) + 1;
      uint64_t CHi = I == K ? Hi : B::loadDirect(P[N].Keys[I]) - 1;
      if (!validateFrom(B::loadDirect(P[N].Children[I]), CLo, CHi,
                        /*IsRoot=*/false, Depth + 1, LeafDepth, Count))
        return false;
    }
    return true;
  }

  template <typename Fn>
  void forEachDirectFrom(uint32_t N, Fn &Callback) const {
    if (N == Pool::Null)
      return;
    uint32_t K = B::loadDirect(P[N].NumKeys);
    bool IsLeaf = B::loadDirect(P[N].Leaf) != 0;
    for (uint32_t I = 0; I < K; ++I) {
      if (!IsLeaf)
        forEachDirectFrom(B::loadDirect(P[N].Children[I]), Callback);
      Callback(B::loadDirect(P[N].Keys[I]), B::loadDirect(P[N].Vals[I]));
    }
    if (!IsLeaf)
      forEachDirectFrom(B::loadDirect(P[N].Children[K]), Callback);
  }

  Pool &P;
  typename B::template Cell<uint32_t> Root;
  typename B::template Cell<uint64_t> Stripes[SizeStripes];
};

} // namespace gstm

#endif // GSTM_TMDS_TMBTREE_H
