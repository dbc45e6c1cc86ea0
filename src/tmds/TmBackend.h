//===- tmds/TmBackend.h - STM backend traits for the tmds containers -----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend traits that let one transactional container source run on
/// every STM runtime in this repo. The seed containers in `src/stamp` are
/// hard-wired to Tl2Txn/TVar; the tmds structures are instead templates
/// over a backend policy providing:
///
///  * `Stm` / `Txn` — the runtime and per-thread descriptor types (all
///    runtimes share the `run(TxId, Body)` / `threadId()` shape),
///  * `Cell<T>` — the unit of transactionally shared state (TVar<T> on
///    the word backends, TObj<T> on LibTm) with transactional load/store
///    and quiescent loadDirect/storeDirect,
///  * `Obj<T>` — a multi-word object cell, TObj<T> on every backend: a
///    load is one snapshot of all its words under the object's one orec
///    (one read-set entry), a store writes it whole,
///  * `cellAddr`/`cellRaw` — the address and raw word the runtime's
///    TxAccessObserver reports for a cell, so the check harness can
///    register initial values that match what onTxLoad/onTxStore will
///    carry (a TVar reports &TVar::word() and the encoded word; a TObj
///    reports the object, i.e. its leading Meta word, and payload word 0
///    — for word-sized payloads the two encodings agree), and
///  * `cellLocked` — per-cell lock residue probe for post-run quiescence
///    checks (the orec guarding the cell, as the runtime picks it: a
///    TVar's stripe; a TObj's Meta word itself on the flat runtime, which
///    every backend but the sharded one runs on, and the Meta's stripe
///    there).
///
/// `load`/`store` also take a `DirectAccess` tag in place of the
/// descriptor and then access the cell directly, so one algorithm
/// template serves a transaction and a quiescent, single-threaded load.
///
/// `Cell<T>` holds trivially copyable values of at most 8 bytes, so one
/// LibTm payload word mirrors one TVar word.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_TMDS_TMBACKEND_H
#define GSTM_TMDS_TMBACKEND_H

#include "engine/Engines.h"
#include "libtm/LibTm.h"
#include "shard/Sharded.h"
#include "stm/LockTable.h"
#include "stm/TVar.h"
#include "support/Ids.h"

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace gstm {

/// Accessor tag for quiescent, single-threaded use: a tmds algorithm
/// templated on its accessor runs on `B::loadDirect`/`B::storeDirect`
/// when handed this instead of a `B::Txn &`. It reports thread 0, so a
/// per-thread stripe it bumps is the one a thread-0 transaction bumps.
struct DirectAccess {
  static constexpr ThreadId threadId() { return 0; }
};

/// Object cells, shared by every backend over descriptor \p TxnT:
/// transactional snapshot/whole-object write through the descriptor's
/// read/write, and the observer's view of the object (its Meta word and
/// payload word 0).
template <typename TxnT> struct ObjectCells {
  template <typename T> using Obj = TObj<T>;

  template <typename T> static T load(TxnT &Tx, const TObj<T> &C) {
    return Tx.read(C);
  }
  template <typename T>
  static void store(TxnT &Tx, TObj<T> &C,
                    const std::type_identity_t<T> &Value) {
    Tx.write(C, Value);
  }
  template <typename T> static T loadDirect(const TObj<T> &C) {
    return C.loadDirect();
  }
  template <typename T>
  static void storeDirect(TObj<T> &C, const std::type_identity_t<T> &Value) {
    C.storeDirect(Value);
  }
  template <typename T> static T load(DirectAccess, const TObj<T> &C) {
    return loadDirect(C);
  }
  template <typename T>
  static void store(DirectAccess, TObj<T> &C,
                    const std::type_identity_t<T> &Value) {
    storeDirect(C, Value);
  }

  template <typename T> static const void *cellAddr(const TObj<T> &C) {
    return &C.meta();
  }
  template <typename T> static uint64_t cellRaw(const TObj<T> &C) {
    return C.words()[0].load(std::memory_order_relaxed);
  }

  /// True when the orec guarding \p C is still locked (post-run residue
  /// probe; quiescent use only). The runtime's objectOrec maps the Meta
  /// word to the orec its commits lock.
  template <typename StmT, typename T>
  static bool cellLocked(StmT &S, const TObj<T> &C) {
    return LockTable::decode(
               S.objectOrec(C.meta()).load(std::memory_order_relaxed))
        .Locked;
  }
};

/// Word-based backends over a chassis descriptor \p TxnT: cells are
/// TVar<T> and the runtime's access observer reports &TVar::word() and
/// the encoded word, whatever the policy or orec layout.
template <typename TxnT> struct WordBackend : ObjectCells<TxnT> {
  using Txn = TxnT;
  using Stm = typename TxnT::Stm;
  template <typename T> using Cell = TVar<T>;
  using Objects = ObjectCells<TxnT>;
  using Objects::cellAddr;
  using Objects::cellLocked;
  using Objects::cellRaw;
  using Objects::load;
  using Objects::loadDirect;
  using Objects::store;
  using Objects::storeDirect;

  template <typename T> static T load(Txn &Tx, const Cell<T> &C) {
    return Tx.load(C);
  }
  template <typename T>
  static void store(Txn &Tx, Cell<T> &C, std::type_identity_t<T> Value) {
    Tx.store(C, Value);
  }
  template <typename T> static T loadDirect(const Cell<T> &C) {
    return C.loadDirect();
  }
  template <typename T>
  static void storeDirect(Cell<T> &C, std::type_identity_t<T> Value) {
    C.storeDirect(Value);
  }
  template <typename T> static T load(DirectAccess, const Cell<T> &C) {
    return loadDirect(C);
  }
  template <typename T>
  static void store(DirectAccess, Cell<T> &C, std::type_identity_t<T> Value) {
    storeDirect(C, Value);
  }

  /// Address / raw value as seen by TxAccessObserver callbacks.
  template <typename T> static const void *cellAddr(const Cell<T> &C) {
    return &C.word();
  }
  template <typename T> static uint64_t cellRaw(const Cell<T> &C) {
    return C.word().load(std::memory_order_relaxed);
  }

  /// True when the stripe guarding \p C is still locked (post-run
  /// residue probe; quiescent use only).
  template <typename T> static bool cellLocked(Stm &S, const Cell<T> &C) {
    return LockTable::decode(
               S.stripeFor(&C.word()).load(std::memory_order_relaxed))
        .Locked;
  }
};

/// The chassis policies on their flat tables; TL2 also on the sharded
/// tier's partitioned one (shard/Sharded.h).
template <typename Policy>
struct EngineBackend : WordBackend<EngineTxn<Policy>> {
  static constexpr const char *Name = Policy::Name;
};
using Tl2Backend = EngineBackend<Tl2Policy>;
using OrecEagerBackend = EngineBackend<OrecEagerPolicy>;
struct ShardBackend : WordBackend<ShardedTxn> {
  static constexpr const char *Name = "sharded";
};

/// Object-based LibTm backend: every cell is a TObj<T> with its orec
/// embedded as the object's Meta word, so a word cell is an object cell
/// of one payload word. The runtime is flat TL2's; only the cells differ
/// from Tl2Backend.
struct LibTmBackend : ObjectCells<LibTxn> {
  using Stm = LibTm;
  using Txn = LibTxn;
  template <typename T> using Cell = TObj<T>;

  static constexpr const char *Name = "libtm";
};

} // namespace gstm

#endif // GSTM_TMDS_TMBACKEND_H
