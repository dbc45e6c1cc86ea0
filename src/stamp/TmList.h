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
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMLIST_H
#define GSTM_STAMP_TMLIST_H

#include "engine/Tl2.h"
#include "stamp/TmPool.h"
#include "stm/TVar.h"

#include <cstdint>
#include <optional>

namespace gstm {

/// Node of a TmList; lives in a TmPool shared by many lists.
struct TmListNode {
  TVar<uint64_t> Key;
  TVar<uint64_t> Value;
  TVar<uint32_t> Next;
};

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
  bool insertOrAssign(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint64_t Value);

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
    uint32_t Cur = Tx.load(Head);
    while (Cur != Pool::Null) {
      TmListNode &N = Nodes[Cur];
      Callback(Tx.load(N.Key), Tx.load(N.Value));
      Cur = Tx.load(N.Next);
    }
  }

  /// Non-transactional traversal for quiescent verification.
  template <typename Fn> void forEachDirect(Pool &Nodes, Fn &&Callback) {
    uint32_t Cur = Head.loadDirect();
    while (Cur != Pool::Null) {
      TmListNode &N = Nodes[Cur];
      Callback(N.Key.loadDirect(), N.Value.loadDirect());
      Cur = N.Next.loadDirect();
    }
  }

private:
  /// Finds the insertion point: on return Prev is the node before the
  /// first node with key >= \p Key (Null when that is the head) and Cur
  /// that node (Null at end).
  void locate(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint32_t &Prev,
              uint32_t &Cur);

  TVar<uint32_t> Head{Pool::Null};
};

} // namespace gstm

#endif // GSTM_STAMP_TMLIST_H
