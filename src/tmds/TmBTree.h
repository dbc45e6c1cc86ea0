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
/// policy (tmds/TmBackend.h); the same source instantiates over TL2 flat
/// and sharded, orec-eager and LibTm. Merged-away nodes are unlinked but
/// never recycled (TmPool discipline: a speculative reader may still
/// hold their indices). insertDirect() runs the same insert code on
/// direct accesses, for a preload before any transaction starts.
///
/// A node's key count, leaf flag and keys are one object cell, its key
/// block (TmBTreeKeys): a descent reads it with one snapshot — one orec
/// check and one read-set entry — and searches the keys locally, so a
/// find or update checks about two orecs per level (the block, then a
/// child link or the value) instead of one per key. Every structural
/// change edits local copies of the blocks it touches and writes each
/// back whole; under direct access the insert path edits the node's own
/// words instead (DirectKeys), since a preload has no snapshot to take.
/// Values and child links stay one cell per slot. So:
///
///  * a value update conflicts only with readers of that value slot, not
///    with descents through its node;
///  * an insert, remove, split, borrow or merge writes the key block of
///    every node it changes, so it conflicts with every descent through
///    those nodes;
///  * stripes shared by unrelated cells (aliasing in the orec table) add
///    false conflicts, as for any cell.
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

namespace gstm {

/// The part of a TmBTree node every descent reads, kept as one
/// transactional object: word 0 packs the key count (low half) and the
/// leaf flag (high half), the keys fill words 1..MaxKeysN.
template <unsigned MaxKeysN> struct TmBTreeKeys {
  uint64_t Head;
  uint64_t Keys[MaxKeysN];

  static constexpr uint64_t head(uint32_t Count, bool Leaf) {
    return uint64_t{Leaf} << 32 | Count;
  }
  uint32_t count() const { return static_cast<uint32_t>(Head); }
  bool leaf() const { return (Head >> 32) != 0; }
  uint64_t key(uint32_t I) const { return Keys[I]; }
  void setCount(uint32_t Count) { Head = head(Count, leaf()); }
  void setKey(uint32_t I, uint64_t Key) { Keys[I] = Key; }
};

/// Node of a TmBTree. Children are pool indices; leaves keep them Null.
template <typename B, unsigned MaxKeysN> struct TmBTreeNode {
  typename B::template Obj<TmBTreeKeys<MaxKeysN>> Block;
  typename B::template Cell<uint64_t> Vals[MaxKeysN];
  typename B::template Cell<uint32_t> Children[MaxKeysN + 1];
};

/// Transactional ordered map with unique 64-bit keys, templated over an
/// STM backend policy (tmds/TmBackend.h).
template <typename B> class TmBTree {
public:
  /// CLRS minimum degree: nodes hold MinDegree-1 .. 2*MinDegree-1 keys
  /// (root exempt below the minimum).
  static constexpr unsigned MinDegree = 8;
  static constexpr unsigned MaxKeys = 2 * MinDegree - 1;
  /// Size-counter stripes (power of two; threads map on modulo).
  static constexpr unsigned SizeStripes = 64;

  using Txn = typename B::Txn;
  using KeyBlock = TmBTreeKeys<MaxKeys>;
  using Node = TmBTreeNode<B, MaxKeys>;
  using Pool = TmPool<Node>;

  /// Creates an empty tree; allocates its root leaf from \p Nodes.
  /// Single-threaded (uses direct stores).
  explicit TmBTree(Pool &Nodes) : P(Nodes) {
    uint32_t R = P.allocate();
    B::storeDirect(P[R].Block, KeyBlock{KeyBlock::head(0, true), {}});
    B::storeDirect(Root, R);
  }

  /// Returns the value mapped to \p Key, if any.
  std::optional<uint64_t> find(Txn &Tx, uint64_t Key) {
    uint32_t N = B::load(Tx, Root);
    for (;;) {
      const KeyBlock Blk = keys(Tx, N);
      uint32_t I = lowerBound(Blk, Key);
      if (I < Blk.count() && Blk.key(I) == Key)
        return B::load(Tx, P[N].Vals[I]);
      if (Blk.leaf())
        return std::nullopt;
      N = child(Tx, N, I);
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
      const KeyBlock Blk = keys(Tx, N);
      uint32_t I = lowerBound(Blk, Key);
      if (I < Blk.count() && Blk.key(I) == Key) {
        B::store(Tx, P[N].Vals[I], Value);
        return true;
      }
      if (Blk.leaf())
        return false;
      N = child(Tx, N, I);
    }
  }

  /// Removes \p Key; returns its value if present.
  std::optional<uint64_t> remove(Txn &Tx, uint64_t Key) {
    uint32_t R = B::load(Tx, Root);
    std::optional<uint64_t> Removed = removeRec(Tx, R, Key);
    // Shrink an emptied non-leaf root (its single child absorbed a
    // root-level merge).
    R = B::load(Tx, Root);
    const KeyBlock RBlk = keys(Tx, R);
    if (RBlk.count() == 0 && !RBlk.leaf())
      B::store(Tx, Root, child(Tx, R, 0));
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
  /// far, whose key block is one location. Quiescent use only; lets the
  /// check harness register initials.
  template <typename Fn> void forEachCellDirect(Fn &&Callback) const {
    Callback(B::cellAddr(Root), B::cellRaw(Root));
    for (unsigned I = 0; I < SizeStripes; ++I)
      Callback(B::cellAddr(Stripes[I]), B::cellRaw(Stripes[I]));
    for (uint32_t N = 1; N <= P.used(); ++N) {
      Callback(B::cellAddr(P[N].Block), B::cellRaw(P[N].Block));
      for (unsigned I = 0; I < MaxKeys; ++I)
        Callback(B::cellAddr(P[N].Vals[I]), B::cellRaw(P[N].Vals[I]));
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
      Residue |= B::cellLocked(S, P[N].Block);
      for (unsigned I = 0; I < MaxKeys; ++I)
        Residue |= B::cellLocked(S, P[N].Vals[I]);
      for (unsigned I = 0; I <= MaxKeys; ++I)
        Residue |= B::cellLocked(S, P[N].Children[I]);
    }
    return Residue;
  }

private:
  /// A node's key block under direct access: KeyBlock's interface over
  /// the object's own words, so a quiescent insert or traversal reads
  /// the few words it needs instead of copying whole blocks, and an
  /// insert's edits land in place.
  class DirectKeys {
  public:
    explicit DirectKeys(Node &Owner) : Words(Owner.Block.words()) {}
    uint32_t count() const { return static_cast<uint32_t>(word(0)); }
    bool leaf() const { return (word(0) >> 32) != 0; }
    uint64_t key(uint32_t I) const { return word(I + 1); }
    void setCount(uint32_t Count) { set(0, KeyBlock::head(Count, leaf())); }
    void setKey(uint32_t I, uint64_t Key) { set(I + 1, Key); }

  private:
    uint64_t word(uint32_t I) const {
      // stm-lint: allow(R1) DirectKeys only exists for DirectAccess, the
      // quiescent single-threaded accessor; transactions use KeyBlock.
      return Words[I].load(std::memory_order_relaxed);
    }
    void set(uint32_t I, uint64_t Word) {
      // stm-lint: allow(R1) as word(): quiescent direct access only.
      Words[I].store(Word, std::memory_order_relaxed);
    }
    std::atomic<uint64_t> *Words;
  };

  /// The insert path's working key block for accessor \p TxnOrDirect: a
  /// local copy in a transaction, written back whole by setKeys; the
  /// node itself under direct access.
  template <typename TxnOrDirect>
  using BlockFor =
      std::conditional_t<std::is_same_v<TxnOrDirect, DirectAccess>,
                         DirectKeys, KeyBlock>;

  // Field helpers (declared for readability at call sites). Like the
  // insert path, they take a `Txn &` or a DirectAccess tag.
  KeyBlock keys(Txn &Tx, uint32_t N) { return B::load(Tx, P[N].Block); }
  DirectKeys keys(DirectAccess, uint32_t N) { return DirectKeys(P[N]); }
  void setKeys(Txn &Tx, uint32_t N, const KeyBlock &Blk) {
    B::store(Tx, P[N].Block, Blk);
  }
  void setKeys(DirectAccess, uint32_t, const DirectKeys &) {}
  /// An empty key block for the fresh node \p N.
  KeyBlock newKeys(Txn &, uint32_t, bool Leaf) {
    return KeyBlock{KeyBlock::head(0, Leaf), {}};
  }
  DirectKeys newKeys(DirectAccess, uint32_t N, bool Leaf) {
    B::storeDirect(P[N].Block, KeyBlock{KeyBlock::head(0, Leaf), {}});
    return DirectKeys(P[N]);
  }
  template <typename TxnOrDirect>
  uint64_t val(TxnOrDirect &Tx, uint32_t N, uint32_t I) {
    return B::load(Tx, P[N].Vals[I]);
  }
  template <typename TxnOrDirect>
  uint32_t child(TxnOrDirect &Tx, uint32_t N, uint32_t I) {
    return B::load(Tx, P[N].Children[I]);
  }

  /// Index of the first key of \p Blk not below \p Key (its count if
  /// none). Scanning from the back places an ascending preload's key
  /// after one compare, where a binary search probes four times; on a
  /// random descent it was no slower.
  template <typename Keys>
  static uint32_t lowerBound(const Keys &Blk, uint64_t Key) {
    uint32_t I = Blk.count();
    while (I > 0 && Blk.key(I - 1) >= Key)
      --I;
    return I;
  }

  /// The insert path; \p Tx is a `Txn &` or a DirectAccess tag.
  template <typename TxnOrDirect>
  bool insertAt(TxnOrDirect &Tx, uint64_t Key, uint64_t Value) {
    uint32_t R = B::load(Tx, Root);
    BlockFor<TxnOrDirect> RBlk = keys(Tx, R);
    if (RBlk.count() == MaxKeys) {
      uint32_t NewRoot = P.allocate();
      BlockFor<TxnOrDirect> Top = newKeys(Tx, NewRoot, /*Leaf=*/false);
      B::store(Tx, P[NewRoot].Children[0], R);
      splitChild(Tx, NewRoot, Top, 0, R, RBlk);
      B::store(Tx, Root, NewRoot);
      R = NewRoot;
      RBlk = Top;
    }
    if (!insertNonFull(Tx, R, RBlk, Key, Value))
      return false;
    bumpSize(Tx, uint64_t{1});
    return true;
  }

  /// Splits the full child \p Y (= child \p I of \p X, MaxKeys keys)
  /// around its median, which moves up into \p X. \p XBlk and \p YBlk are
  /// the two working key blocks; both are updated and written back here,
  /// as is the new right sibling's. X's and Y's blocks are written before
  /// the sibling is allocated: under encounter-time locking (orec-eager)
  /// a conflicting writer then aborts the attempt before it takes a pool
  /// node, which an aborted attempt would leak.
  template <typename TxnOrDirect>
  void splitChild(TxnOrDirect &Tx, uint32_t X, BlockFor<TxnOrDirect> &XBlk,
                  uint32_t I, uint32_t Y, BlockFor<TxnOrDirect> &YBlk) {
    // Y keeps its lower half; its upper keys stay readable past the new
    // count until they move to the sibling below.
    YBlk.setCount(MinDegree - 1);
    uint32_t XK = XBlk.count();
    for (uint32_t J = XK; J > I; --J)
      XBlk.setKey(J, XBlk.key(J - 1));
    XBlk.setKey(I, YBlk.key(MinDegree - 1));
    XBlk.setCount(XK + 1);
    setKeys(Tx, Y, YBlk);
    setKeys(Tx, X, XBlk);

    uint32_t Z = P.allocate();
    BlockFor<TxnOrDirect> ZBlk = newKeys(Tx, Z, YBlk.leaf());
    for (uint32_t J = 0; J < MinDegree - 1; ++J) {
      ZBlk.setKey(J, YBlk.key(J + MinDegree));
      B::store(Tx, P[Z].Vals[J], val(Tx, Y, J + MinDegree));
    }
    ZBlk.setCount(MinDegree - 1);
    setKeys(Tx, Z, ZBlk);
    if (!YBlk.leaf())
      for (uint32_t J = 0; J < MinDegree; ++J)
        B::store(Tx, P[Z].Children[J], child(Tx, Y, J + MinDegree));

    for (uint32_t J = XK; J > I; --J) {
      B::store(Tx, P[X].Children[J + 1], child(Tx, X, J));
      B::store(Tx, P[X].Vals[J], val(Tx, X, J - 1));
    }
    B::store(Tx, P[X].Children[I + 1], Z);
    B::store(Tx, P[X].Vals[I], val(Tx, Y, MinDegree - 1));
  }

  /// Top-down insert into node \p N, guaranteed non-full, whose working
  /// key block is \p Blk; false on duplicate.
  template <typename TxnOrDirect>
  bool insertNonFull(TxnOrDirect &Tx, uint32_t N, BlockFor<TxnOrDirect> Blk,
                     uint64_t Key, uint64_t Value) {
    for (;;) {
      uint32_t K = Blk.count();
      uint32_t I = lowerBound(Blk, Key);
      if (I < K && Blk.key(I) == Key)
        return false;
      if (Blk.leaf()) {
        for (uint32_t J = K; J > I; --J) {
          Blk.setKey(J, Blk.key(J - 1));
          B::store(Tx, P[N].Vals[J], val(Tx, N, J - 1));
        }
        Blk.setKey(I, Key);
        B::store(Tx, P[N].Vals[I], Value);
        Blk.setCount(K + 1);
        setKeys(Tx, N, Blk);
        return true;
      }
      uint32_t C = child(Tx, N, I);
      BlockFor<TxnOrDirect> CBlk = keys(Tx, C);
      if (CBlk.count() == MaxKeys) {
        splitChild(Tx, N, Blk, I, C, CBlk);
        uint64_t Mid = Blk.key(I);
        if (Mid == Key)
          return false;
        if (Key > Mid) {
          C = child(Tx, N, I + 1);
          CBlk = keys(Tx, C);
        }
      }
      N = C;
      Blk = CBlk;
    }
  }

  /// CLRS delete from the subtree rooted at \p N, which is guaranteed to
  /// hold at least MinDegree keys unless it is the root.
  std::optional<uint64_t> removeRec(Txn &Tx, uint32_t N, uint64_t Key) {
    KeyBlock Blk = keys(Tx, N);
    for (;;) {
      uint32_t K = Blk.count();
      uint32_t I = lowerBound(Blk, Key);
      bool Hit = I < K && Blk.key(I) == Key;
      if (Hit && Blk.leaf()) {
        uint64_t Old = val(Tx, N, I);
        for (uint32_t J = I; J + 1 < K; ++J) {
          Blk.setKey(J, Blk.key(J + 1));
          B::store(Tx, P[N].Vals[J], val(Tx, N, J + 1));
        }
        Blk.setCount(K - 1);
        setKeys(Tx, N, Blk);
        return Old;
      }
      if (Hit) {
        uint32_t C = child(Tx, N, I);     // predecessor subtree
        uint32_t D = child(Tx, N, I + 1); // successor subtree
        KeyBlock CBlk = keys(Tx, C);
        if (CBlk.count() >= MinDegree) {
          // Replace with the in-order predecessor and delete it below.
          auto [Pk, Pv] = maxOf(Tx, C, CBlk);
          return replaceAndRemove(Tx, N, Blk, I, Pk, Pv, C);
        }
        KeyBlock DBlk = keys(Tx, D);
        if (DBlk.count() >= MinDegree) {
          auto [Sk, Sv] = minOf(Tx, D, DBlk);
          return replaceAndRemove(Tx, N, Blk, I, Sk, Sv, D);
        }
        // Both minimal: merge around key I, then delete from the merged
        // child (root shrink, if this emptied the root, happens in
        // remove()).
        mergeChildren(Tx, N, Blk, I, C, CBlk, D, DBlk);
        N = C;
        Blk = CBlk;
        continue;
      }
      if (Blk.leaf())
        return std::nullopt; // absent
      uint32_t C = child(Tx, N, I);
      KeyBlock CBlk = keys(Tx, C);
      if (CBlk.count() == MinDegree - 1)
        C = fillChild(Tx, N, Blk, I, C, CBlk);
      N = C;
      Blk = CBlk;
    }
  }

  /// Replaces entry \p I of \p N (key block \p Blk) by (\p Key, \p Val),
  /// taken from the subtree at \p From, deletes \p Key from that subtree
  /// and returns the replaced value.
  uint64_t replaceAndRemove(Txn &Tx, uint32_t N, KeyBlock &Blk, uint32_t I,
                            uint64_t Key, uint64_t Val, uint32_t From) {
    uint64_t Old = val(Tx, N, I);
    Blk.setKey(I, Key);
    setKeys(Tx, N, Blk);
    B::store(Tx, P[N].Vals[I], Val);
    removeRec(Tx, From, Key);
    return Old;
  }

  /// (key, value) of the largest entry in the subtree at \p N, whose key
  /// block is \p Blk.
  std::pair<uint64_t, uint64_t> maxOf(Txn &Tx, uint32_t N, KeyBlock Blk) {
    while (!Blk.leaf()) {
      N = child(Tx, N, Blk.count());
      Blk = keys(Tx, N);
    }
    return {Blk.key(Blk.count() - 1), val(Tx, N, Blk.count() - 1)};
  }

  /// (key, value) of the smallest entry in the subtree at \p N, whose key
  /// block is \p Blk.
  std::pair<uint64_t, uint64_t> minOf(Txn &Tx, uint32_t N, KeyBlock Blk) {
    while (!Blk.leaf()) {
      N = child(Tx, N, 0);
      Blk = keys(Tx, N);
    }
    return {Blk.key(0), val(Tx, N, 0)};
  }

  /// Grows child \p I of \p N (node \p C, whose key block \p CBlk holds
  /// MinDegree-1 keys) to at least MinDegree keys by borrowing from a
  /// sibling or merging; returns the node to descend into and leaves its
  /// key block in \p CBlk. \p NBlk is \p N's key block.
  uint32_t fillChild(Txn &Tx, uint32_t N, KeyBlock &NBlk, uint32_t I,
                     uint32_t C, KeyBlock &CBlk) {
    uint32_t L = Pool::Null;
    KeyBlock LBlk{};
    if (I > 0) {
      L = child(Tx, N, I - 1);
      LBlk = keys(Tx, L);
      if (LBlk.count() >= MinDegree) {
        borrowFromLeft(Tx, N, NBlk, I, C, CBlk, L, LBlk);
        return C;
      }
    }
    if (I < NBlk.count()) {
      uint32_t R = child(Tx, N, I + 1);
      KeyBlock RBlk = keys(Tx, R);
      if (RBlk.count() >= MinDegree)
        borrowFromRight(Tx, N, NBlk, I, C, CBlk, R, RBlk);
      else
        mergeChildren(Tx, N, NBlk, I, C, CBlk, R, RBlk);
      return C;
    }
    mergeChildren(Tx, N, NBlk, I - 1, L, LBlk, C, CBlk);
    CBlk = LBlk;
    return L;
  }

  /// Rotates one entry through the separator: left sibling \p L's last
  /// entry moves up into \p N, the separator moves down into child \p I
  /// (node \p C). Every block argument is its node's key block.
  void borrowFromLeft(Txn &Tx, uint32_t N, KeyBlock &NBlk, uint32_t I,
                      uint32_t C, KeyBlock &CBlk, uint32_t L,
                      KeyBlock &LBlk) {
    uint32_t CK = CBlk.count();
    uint32_t LK = LBlk.count();
    for (uint32_t J = CK; J > 0; --J) {
      CBlk.setKey(J, CBlk.key(J - 1));
      B::store(Tx, P[C].Vals[J], val(Tx, C, J - 1));
    }
    CBlk.setKey(0, NBlk.key(I - 1));
    B::store(Tx, P[C].Vals[0], val(Tx, N, I - 1));
    if (!CBlk.leaf()) {
      for (uint32_t J = CK + 1; J > 0; --J)
        B::store(Tx, P[C].Children[J], child(Tx, C, J - 1));
      B::store(Tx, P[C].Children[0], child(Tx, L, LK));
    }
    NBlk.setKey(I - 1, LBlk.key(LK - 1));
    B::store(Tx, P[N].Vals[I - 1], val(Tx, L, LK - 1));
    LBlk.setCount(LK - 1);
    CBlk.setCount(CK + 1);
    setKeys(Tx, N, NBlk);
    setKeys(Tx, L, LBlk);
    setKeys(Tx, C, CBlk);
  }

  /// Mirror of borrowFromLeft for the right sibling \p R.
  void borrowFromRight(Txn &Tx, uint32_t N, KeyBlock &NBlk, uint32_t I,
                       uint32_t C, KeyBlock &CBlk, uint32_t R,
                       KeyBlock &RBlk) {
    uint32_t CK = CBlk.count();
    uint32_t RK = RBlk.count();
    CBlk.setKey(CK, NBlk.key(I));
    B::store(Tx, P[C].Vals[CK], val(Tx, N, I));
    NBlk.setKey(I, RBlk.key(0));
    B::store(Tx, P[N].Vals[I], val(Tx, R, 0));
    for (uint32_t J = 0; J + 1 < RK; ++J) {
      RBlk.setKey(J, RBlk.key(J + 1));
      B::store(Tx, P[R].Vals[J], val(Tx, R, J + 1));
    }
    if (!CBlk.leaf()) {
      B::store(Tx, P[C].Children[CK + 1], child(Tx, R, 0));
      for (uint32_t J = 0; J < RK; ++J)
        B::store(Tx, P[R].Children[J], child(Tx, R, J + 1));
    }
    RBlk.setCount(RK - 1);
    CBlk.setCount(CK + 1);
    setKeys(Tx, N, NBlk);
    setKeys(Tx, R, RBlk);
    setKeys(Tx, C, CBlk);
  }

  /// Merges child \p I (node \p C), separator key \p I, and child \p I+1
  /// (node \p D) into \p C (both children hold MinDegree-1 keys). The
  /// right child is unlinked but not recycled.
  void mergeChildren(Txn &Tx, uint32_t N, KeyBlock &NBlk, uint32_t I,
                     uint32_t C, KeyBlock &CBlk, uint32_t D,
                     const KeyBlock &DBlk) {
    uint32_t K = NBlk.count();
    CBlk.setKey(MinDegree - 1, NBlk.key(I));
    B::store(Tx, P[C].Vals[MinDegree - 1], val(Tx, N, I));
    for (uint32_t J = 0; J < MinDegree - 1; ++J) {
      CBlk.setKey(J + MinDegree, DBlk.key(J));
      B::store(Tx, P[C].Vals[J + MinDegree], val(Tx, D, J));
    }
    if (!CBlk.leaf())
      for (uint32_t J = 0; J < MinDegree; ++J)
        B::store(Tx, P[C].Children[J + MinDegree], child(Tx, D, J));
    CBlk.setCount(MaxKeys);
    for (uint32_t J = I; J + 1 < K; ++J) {
      NBlk.setKey(J, NBlk.key(J + 1));
      B::store(Tx, P[N].Vals[J], val(Tx, N, J + 1));
    }
    for (uint32_t J = I + 1; J < K; ++J)
      B::store(Tx, P[N].Children[J], child(Tx, N, J + 1));
    NBlk.setCount(K - 1);
    setKeys(Tx, C, CBlk);
    setKeys(Tx, N, NBlk);
  }

  void scanRec(Txn &Tx, uint32_t N, uint64_t Start, size_t MaxCount,
               size_t &Taken, uint64_t &ValueSum) {
    if (N == Pool::Null || Taken >= MaxCount)
      return;
    const KeyBlock Blk = keys(Tx, N);
    const uint32_t K = Blk.count();
    for (uint32_t I = 0; I < K && Taken < MaxCount; ++I) {
      uint64_t Ki = Blk.key(I);
      // Child I holds keys below Ki; skip it when the whole subtree is
      // below the scan start.
      if (!Blk.leaf() && Ki >= Start)
        scanRec(Tx, child(Tx, N, I), Start, MaxCount, Taken, ValueSum);
      if (Taken >= MaxCount)
        return;
      if (Ki >= Start) {
        ValueSum += val(Tx, N, I);
        ++Taken;
      }
    }
    if (!Blk.leaf() && Taken < MaxCount)
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
    const DirectKeys Blk(P[N]);
    const uint32_t K = Blk.count();
    if (K > MaxKeys)
      return false;
    if (!IsRoot && K < MinDegree - 1)
      return false;
    if (IsRoot && !Blk.leaf() && K == 0)
      return false; // non-leaf root must separate something
    for (uint32_t I = 0; I < K; ++I) {
      uint64_t Ki = Blk.key(I);
      if (Ki < Lo || Ki > Hi)
        return false;
      if (I > 0 && Ki <= Blk.key(I - 1))
        return false;
    }
    Count += K;
    if (Blk.leaf()) {
      if (LeafDepth < 0)
        LeafDepth = Depth;
      return LeafDepth == Depth;
    }
    for (uint32_t I = 0; I <= K; ++I) {
      // Child I's keys sit strictly between the neighbouring separators.
      uint64_t CLo = I == 0 ? Lo : Blk.key(I - 1) + 1;
      uint64_t CHi = I == K ? Hi : Blk.key(I) - 1;
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
    const DirectKeys Blk(P[N]);
    for (uint32_t I = 0; I < Blk.count(); ++I) {
      if (!Blk.leaf())
        forEachDirectFrom(B::loadDirect(P[N].Children[I]), Callback);
      Callback(Blk.key(I), B::loadDirect(P[N].Vals[I]));
    }
    if (!Blk.leaf())
      forEachDirectFrom(B::loadDirect(P[N].Children[Blk.count()]),
                        Callback);
  }

  Pool &P;
  typename B::template Cell<uint32_t> Root;
  typename B::template Cell<uint64_t> Stripes[SizeStripes];
};

} // namespace gstm

#endif // GSTM_TMDS_TMBTREE_H
