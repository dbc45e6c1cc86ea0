//===- stamp/TmList.h - Transactional sorted linked list -----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transactional sorted singly linked list over (key, value) pairs of
/// 64-bit words, the workhorse of the STAMP ports: hash-map buckets
/// (genome, intruder), per-customer reservation lists (vacation) and
/// adjacency lists (ssca2) all build on it. Every traversal step is a
/// transactional read, so a commit anywhere on the traversed prefix
/// conflicts — the same contention structure as STAMP's list.c.
///
/// A node is an object: its key and next link are one TObj link block,
/// whose Meta word is its own orec on the flat TL2 runtime, and its
/// value a TVar beside it. The head is an object too. A walk reads one
/// snapshot per node and touches the head's and the nodes' lines only,
/// no lock-table line. Nodes are 32 bytes
/// and 32-byte aligned, two to a line, none straddling one. An insert
/// or remove rewrites its predecessor's link block whole, so it
/// conflicts with every walk that passed or stopped at the predecessor;
/// an update of a node's value conflicts only with readers of that
/// value, not with walks passing the node.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMLIST_H
#define GSTM_STAMP_TMLIST_H

#include "engine/Tl2.h"
#include "libtm/LibTm.h"
#include "stamp/TmPool.h"
#include "stm/TVar.h"

#include <cstdint>
#include <optional>

namespace gstm {

/// A node's key and the index of its successor, read and written as one
/// object.
struct TmListLink {
  uint64_t Key;
  uint32_t Next;
};

/// Node of a TmList; lives in a TmPool shared by many lists.
struct alignas(32) TmListNode {
  TObj<TmListLink> Link;
  TVar<uint64_t> Value;
};
static_assert(sizeof(TmListNode) == 32, "two list nodes per cache line");

/// Sorted singly linked list with unique keys.
///
/// The list head is embedded in the object; nodes come from an external
/// pool so thousands of lists (hash buckets) can share one arena.
class TmList {
public:
  using Pool = TmPool<TmListNode>;

  /// Inserts (\p Key, \p Value); returns false when the key was already
  /// present (no update). \p Spare reuses one node across the attempts
  /// of a transaction, as in TmRbTree::insert.
  bool insert(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint64_t Value,
              uint32_t *Spare = nullptr);

  /// Inserts or overwrites; returns true when a new node was created.
  /// \p Spare as in insert.
  bool insertOrAssign(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint64_t Value,
                      uint32_t *Spare = nullptr);

  /// Looks \p Key up.
  std::optional<uint64_t> find(Tl2Txn &Tx, Pool &Nodes, uint64_t Key);

  /// Unlinks \p Key; returns its value if present. The node is *not*
  /// recycled (see TmPool memory discipline).
  std::optional<uint64_t> remove(Tl2Txn &Tx, Pool &Nodes, uint64_t Key);

  /// Number of nodes reachable (transactional full traversal).
  uint64_t size(Tl2Txn &Tx, Pool &Nodes);

  /// Applies \p Fn(key, value) to each element in key order; \p Fn may
  /// not modify the list.
  template <typename Fn>
  void forEach(Tl2Txn &Tx, Pool &Nodes, Fn &&Callback) {
    uint32_t Cur = Tx.read(Head);
    while (Cur != Pool::Null) {
      TmListNode &N = Nodes[Cur];
      const TmListLink L = Tx.read(N.Link);
      Callback(L.Key, Tx.load(N.Value));
      Cur = L.Next;
    }
  }

  /// Non-transactional traversal for quiescent verification.
  template <typename Fn> void forEachDirect(Pool &Nodes, Fn &&Callback) {
    uint32_t Cur = Head.loadDirect();
    while (Cur != Pool::Null) {
      TmListNode &N = Nodes[Cur];
      const TmListLink L = N.Link.loadDirect();
      Callback(L.Key, N.Value.loadDirect());
      Cur = L.Next;
    }
  }

private:
  /// The insertion point of a key: Prev is the node before the first
  /// node with key >= the key (Null when that is the head), Cur that node
  /// (Null at end), and PrevLink / CurLink their link blocks as read.
  struct Position {
    uint32_t Prev = Pool::Null;
    uint32_t Cur = Pool::Null;
    TmListLink PrevLink{};
    TmListLink CurLink{};

    bool found(uint64_t Key) const {
      return Cur != Pool::Null && CurLink.Key == Key;
    }
  };

  Position locate(Tl2Txn &Tx, Pool &Nodes, uint64_t Key);
  /// Makes \p Next the successor of \p At's predecessor (the head when
  /// it has none), rewriting that link block whole.
  void relink(Tl2Txn &Tx, Pool &Nodes, const Position &At, uint32_t Next);
  /// Links a fresh node (\p Key, \p Value) in at \p At.
  void link(Tl2Txn &Tx, Pool &Nodes, const Position &At, uint64_t Key,
            uint64_t Value, uint32_t *Spare);

  /// First node; an object, so a walk's first read has its own orec.
  TObj<uint32_t> Head{Pool::Null};
};

} // namespace gstm

#endif // GSTM_STAMP_TMLIST_H
