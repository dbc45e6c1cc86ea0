//===- tmds/TmSkipList.h - Transactional skiplist map --------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transactional skiplist map with unique 64-bit keys, the pointer-chain
/// counterpart of the OLTP tier's B-tree: long traversal read sets, writes
/// confined to the tower being linked/unlinked, so read-write conflicts
/// dominate and hot-key skew concentrates them — the contention shape the
/// paper's commit-latency model cares about.
///
/// Transactions provide atomicity, so the code is the sequential algorithm
/// with every field access routed through the backend policy
/// (tmds/TmBackend.h); the same source instantiates over TL2 and LibTm.
/// insertDirect() runs the same insert code on direct accesses, for a
/// preload before any transaction starts.
///
/// Two deliberate departures from a textbook skiplist:
///  * Tower heights are a deterministic hash of the key (geometric via
///    the trailing-ones count of a splitmix64 mix), not drawn from an
///    RNG: txn bodies must be replay-deterministic (stm-lint R3), and a
///    key-derived height makes the final structure independent of thread
///    schedule and insertion order — which is what lets the fuzz harness
///    compare structures across backends byte-for-byte.
///  * The element count lives in per-thread stripes indexed by
///    Txn::threadId(), not one global counter cell: a shared counter
///    would serialize every mutating transaction through one stripe and
///    drown the data-structure contention the tier exists to measure.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_TMDS_TMSKIPLIST_H
#define GSTM_TMDS_TMSKIPLIST_H

#include "stamp/TmPool.h"
#include "tmds/TmBackend.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace gstm {

/// Mixer for deterministic tower heights (Vigna's splitmix64 finalizer).
inline uint64_t tmdsMix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Node of a TmSkipList: key/value plus a fixed-size tower of forward
/// links (pool indices; Null = past-the-end at every level).
template <typename B, unsigned MaxLevelN> struct TmSkipNode {
  typename B::template Cell<uint64_t> Key;
  typename B::template Cell<uint64_t> Value;
  typename B::template Cell<uint32_t> Height;
  typename B::template Cell<uint32_t> Next[MaxLevelN];
};

/// Transactional ordered map with unique 64-bit keys, templated over an
/// STM backend policy (Tl2Backend / LibTmBackend).
template <typename B> class TmSkipList {
public:
  /// Tower levels. 2^16 expected elements per extra level keeps million-
  /// key OLTP keyspaces at their optimal height.
  static constexpr unsigned MaxLevel = 16;
  /// Size-counter stripes (power of two; threads map on modulo).
  static constexpr unsigned SizeStripes = 64;

  using Txn = typename B::Txn;
  using Node = TmSkipNode<B, MaxLevel>;
  using Pool = TmPool<Node>;

  /// Deterministic tower height of \p Key: 1 + trailing ones of the
  /// mixed key, capped at MaxLevel (geometric, p = 1/2).
  static uint32_t towerHeight(uint64_t Key) {
    uint64_t H = tmdsMix64(Key);
    uint32_t Height = 1;
    while ((H & 1) != 0 && Height < MaxLevel) {
      ++Height;
      H >>= 1;
    }
    return Height;
  }

  /// Creates an empty list; allocates its head sentinel from \p Nodes.
  /// Single-threaded (uses direct stores).
  explicit TmSkipList(Pool &Nodes) : P(Nodes) {
    Head = P.allocate();
    B::storeDirect(P[Head].Key, uint64_t{0}); // sentinel; never compared
    B::storeDirect(P[Head].Value, uint64_t{0});
    B::storeDirect(P[Head].Height, uint32_t{MaxLevel});
    for (unsigned L = 0; L < MaxLevel; ++L)
      B::storeDirect(P[Head].Next[L], Pool::Null);
  }

  /// Returns the value mapped to \p Key, if any.
  std::optional<uint64_t> find(Txn &Tx, uint64_t Key) {
    uint32_t N = descend(Tx, Key, nullptr);
    if (N != Pool::Null && B::load(Tx, P[N].Key) == Key)
      return B::load(Tx, P[N].Value);
    return std::nullopt;
  }

  bool contains(Txn &Tx, uint64_t Key) {
    return find(Tx, Key).has_value();
  }

  /// Inserts (\p Key, \p Value); returns false when the key exists.
  bool insert(Txn &Tx, uint64_t Key, uint64_t Value) {
    return insertAt(Tx, Key, Value);
  }

  /// insert() with direct loads and stores, for quiescent use only (a
  /// preload before any transaction runs). It links the same tower and
  /// bumps size stripe 0, as a thread-0 transaction would.
  bool insertDirect(uint64_t Key, uint64_t Value) {
    DirectAccess Direct;
    return insertAt(Direct, Key, Value);
  }

  /// Pool nodes an insert-only load of \p Keys keys takes: one per key
  /// plus the head.
  static constexpr uint64_t nodesFor(uint64_t Keys) { return Keys + 1; }

  /// Overwrites the value of an existing key; false when absent.
  bool update(Txn &Tx, uint64_t Key, uint64_t Value) {
    uint32_t N = descend(Tx, Key, nullptr);
    if (N == Pool::Null || B::load(Tx, P[N].Key) != Key)
      return false;
    B::store(Tx, P[N].Value, Value);
    return true;
  }

  /// Removes \p Key; returns its value if present. Nodes are not
  /// recycled (TmPool memory discipline).
  std::optional<uint64_t> remove(Txn &Tx, uint64_t Key) {
    uint32_t Preds[MaxLevel];
    uint32_t N = descend(Tx, Key, Preds);
    if (N == Pool::Null || B::load(Tx, P[N].Key) != Key)
      return std::nullopt;
    uint64_t Old = B::load(Tx, P[N].Value);
    uint32_t H = B::load(Tx, P[N].Height);
    // Keys are unique, so for every linked level the predecessor's next
    // is exactly N.
    for (uint32_t L = 0; L < H; ++L)
      B::store(Tx, P[Preds[L]].Next[L], B::load(Tx, P[N].Next[L]));
    bumpSize(Tx, ~uint64_t{0}); // -1 in wrap-around arithmetic
    return Old;
  }

  /// Range scan: visits up to \p MaxCount entries with key >= \p Start in
  /// ascending order, accumulating their values into \p ValueSum.
  /// Returns the number visited.
  size_t scan(Txn &Tx, uint64_t Start, size_t MaxCount, uint64_t &ValueSum) {
    uint32_t N = descend(Tx, Start, nullptr);
    size_t Taken = 0;
    while (N != Pool::Null && Taken < MaxCount) {
      ValueSum += B::load(Tx, P[N].Value);
      ++Taken;
      N = B::load(Tx, P[N].Next[0]);
    }
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
  /// only): strictly increasing level-0 keys, per-key deterministic
  /// heights, every level-l chain exactly the subsequence of level-0
  /// nodes with height > l (in order), and stripe total == node count.
  bool validateDirect() const {
    // Level 0: full ordered walk.
    uint64_t Count0 = 0;
    uint32_t Prev = Pool::Null;
    for (uint32_t N = B::loadDirect(P[Head].Next[0]); N != Pool::Null;
         N = B::loadDirect(P[N].Next[0])) {
      uint64_t Key = B::loadDirect(P[N].Key);
      if (Prev != Pool::Null && B::loadDirect(P[Prev].Key) >= Key)
        return false; // order / duplicate violation
      if (B::loadDirect(P[N].Height) != towerHeight(Key))
        return false;
      Prev = N;
      ++Count0;
      if (Count0 > P.used())
        return false; // cycle
    }
    if (sizeDirect() != Count0)
      return false;
    // Upper levels: each must be exactly the level-0 nodes with height
    // > L, in the same order.
    for (unsigned L = 1; L < MaxLevel; ++L) {
      uint32_t Expect = B::loadDirect(P[Head].Next[0]);
      for (uint32_t N = B::loadDirect(P[Head].Next[L]); N != Pool::Null;
           N = B::loadDirect(P[N].Next[L])) {
        while (Expect != Pool::Null &&
               B::loadDirect(P[Expect].Height) <= L)
          Expect = B::loadDirect(P[Expect].Next[0]);
        if (Expect != N)
          return false; // wrong node (or not on level 0 at all)
        Expect = B::loadDirect(P[Expect].Next[0]);
      }
      while (Expect != Pool::Null) {
        if (B::loadDirect(P[Expect].Height) > L)
          return false; // tall node missing from level L
        Expect = B::loadDirect(P[Expect].Next[0]);
      }
    }
    return true;
  }

  /// Ascending (key, value) traversal with direct reads (quiescent use
  /// only).
  template <typename Fn> void forEachDirect(Fn &&Callback) const {
    for (uint32_t N = B::loadDirect(P[Head].Next[0]); N != Pool::Null;
         N = B::loadDirect(P[N].Next[0]))
      Callback(B::loadDirect(P[N].Key), B::loadDirect(P[N].Value));
  }

  /// Visits (observer address, raw word) of every cell the structure
  /// owns — the size stripes plus every pool node handed out so far.
  /// Quiescent use only; lets the check harness register initial values.
  template <typename Fn> void forEachCellDirect(Fn &&Callback) const {
    for (unsigned I = 0; I < SizeStripes; ++I)
      Callback(B::cellAddr(Stripes[I]), B::cellRaw(Stripes[I]));
    for (uint32_t N = 1; N <= P.used(); ++N) {
      Callback(B::cellAddr(P[N].Key), B::cellRaw(P[N].Key));
      Callback(B::cellAddr(P[N].Value), B::cellRaw(P[N].Value));
      Callback(B::cellAddr(P[N].Height), B::cellRaw(P[N].Height));
      for (unsigned L = 0; L < MaxLevel; ++L)
        Callback(B::cellAddr(P[N].Next[L]), B::cellRaw(P[N].Next[L]));
    }
  }

  /// Post-run lock-residue probe over every owned cell (quiescent use
  /// only): true when some cell's lock metadata is still held.
  bool anyCellLockedDirect(typename B::Stm &S) const {
    bool Residue = false;
    forEachLockProbe(S, Residue);
    return Residue;
  }

private:
  /// The insert path; \p Tx is a `Txn &` or a DirectAccess tag (see
  /// insertDirect()).
  template <typename TxnOrDirect>
  bool insertAt(TxnOrDirect &Tx, uint64_t Key, uint64_t Value) {
    uint32_t Preds[MaxLevel];
    uint32_t N = descend(Tx, Key, Preds);
    if (N != Pool::Null && B::load(Tx, P[N].Key) == Key)
      return false;
    uint32_t H = towerHeight(Key);
    // Allocation inside the body: an aborted attempt leaks its node
    // (TmPool discipline — pools budget headroom for that).
    uint32_t Fresh = P.allocate();
    B::store(Tx, P[Fresh].Key, Key);
    B::store(Tx, P[Fresh].Value, Value);
    B::store(Tx, P[Fresh].Height, H);
    for (uint32_t L = 0; L < H; ++L) {
      B::store(Tx, P[Fresh].Next[L], B::load(Tx, P[Preds[L]].Next[L]));
      B::store(Tx, P[Preds[L]].Next[L], Fresh);
    }
    bumpSize(Tx, uint64_t{1});
    return true;
  }

  /// Descends towards \p Key, returning the first level-0 node with
  /// key >= \p Key (or Null); when \p Preds is non-null, fills it with
  /// the strict predecessor at every level.
  template <typename TxnOrDirect>
  uint32_t descend(TxnOrDirect &Tx, uint64_t Key, uint32_t *Preds) {
    uint32_t Cur = Head;
    for (int L = MaxLevel - 1; L >= 0; --L) {
      uint32_t Next = B::load(Tx, P[Cur].Next[L]);
      while (Next != Pool::Null && B::load(Tx, P[Next].Key) < Key) {
        Cur = Next;
        Next = B::load(Tx, P[Next].Next[L]);
      }
      if (Preds)
        Preds[L] = Cur;
    }
    return B::load(Tx, P[Cur].Next[0]);
  }

  template <typename TxnOrDirect>
  void bumpSize(TxnOrDirect &Tx, uint64_t Delta) {
    auto &Stripe =
        Stripes[static_cast<size_t>(Tx.threadId()) & (SizeStripes - 1)];
    B::store(Tx, Stripe, B::load(Tx, Stripe) + Delta);
  }

  void forEachLockProbe(typename B::Stm &S, bool &Residue) const {
    for (unsigned I = 0; I < SizeStripes; ++I)
      Residue |= B::cellLocked(S, Stripes[I]);
    for (uint32_t N = 1; N <= P.used(); ++N) {
      Residue |= B::cellLocked(S, P[N].Key);
      Residue |= B::cellLocked(S, P[N].Value);
      Residue |= B::cellLocked(S, P[N].Height);
      for (unsigned L = 0; L < MaxLevel; ++L)
        Residue |= B::cellLocked(S, P[N].Next[L]);
    }
  }

  Pool &P;
  uint32_t Head;
  typename B::template Cell<uint64_t> Stripes[SizeStripes];
};

} // namespace gstm

#endif // GSTM_TMDS_TMSKIPLIST_H
