//===- tmds/TmBackend.h - STM backend traits for the tmds containers -----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend traits that let one transactional container source run on both
/// STM runtimes in this repo. The seed containers in `src/stamp` are
/// hard-wired to Tl2Txn/TVar; the tmds structures are instead templates
/// over a backend policy providing:
///
///  * `Stm` / `Txn` — the runtime and per-thread descriptor types (both
///    runtimes share the `run(TxId, Body)` / `threadId()` shape),
///  * `Cell<T>` — the unit of transactionally shared state (TVar<T> on
///    TL2, TObj<T> on LibTm) with transactional load/store and quiescent
///    loadDirect/storeDirect,
///  * `cellAddr`/`cellRaw` — the address and raw word the runtime's
///    TxAccessObserver reports for that cell, so the check harness can
///    register initial values that match what onTxLoad/onTxStore will
///    carry (TL2 reports &TVar::word() and the encoded word; LibTm
///    reports the TObjBase and payload word 0 — for word-sized payloads
///    the two encodings agree), and
///  * `cellLocked` — per-cell lock residue probe for post-run quiescence
///    checks (TL2 decodes the shared stripe; LibTm decodes the object's
///    embedded metadata word).
///
/// The containers only ever use cells holding trivially copyable values
/// of at most 8 bytes, so one TObj payload word mirrors one TVar word.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_TMDS_TMBACKEND_H
#define GSTM_TMDS_TMBACKEND_H

#include "engine/Engines.h"
#include "libtm/LibTm.h"
#include "shard/Sharded.h"
#include "stm/LockTable.h"
#include "stm/TVar.h"
#include "stm/Tl2.h"

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace gstm {

/// Word-based backends: cells are TVar<T> and the runtime's access
/// observer reports &TVar::word() and the encoded word, whatever the
/// engine. The residue probe decodes the stripe the runtime's stripeFor
/// resolves, which both TL2 orec layouts provide; EngineBackend replaces
/// it where a policy's table is not stripe words.
template <typename StmT, typename TxnT> struct WordBackend {
  using Stm = StmT;
  using Txn = TxnT;
  template <typename T> using Cell = TVar<T>;

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
    return LockTable::decode(S.stripeFor(&C.word()).load(
                                 std::memory_order_relaxed))
        .Locked;
  }
};

/// TL2 on the flat stripe table and on the sharded tier's partitioned
/// one (stm/Tl2.h): one descriptor, so one backend shape.
struct Tl2Backend : WordBackend<Tl2Stm, Tl2Txn> {
  static constexpr const char *Name = "tl2";
};
struct ShardBackend : WordBackend<ShardedStm, ShardedTxn> {
  static constexpr const char *Name = "sharded";
};

/// Object-based LibTm backend: cells are single-payload-word TObj<T> with
/// per-object embedded metadata.
struct LibTmBackend {
  using Stm = LibTm;
  using Txn = LibTxn;
  template <typename T> using Cell = TObj<T>;

  static constexpr const char *Name = "libtm";

  template <typename T> static T load(Txn &Tx, const Cell<T> &C) {
    return Tx.read(C);
  }
  template <typename T>
  static void store(Txn &Tx, Cell<T> &C, std::type_identity_t<T> Value) {
    Tx.write(C, Value);
  }
  template <typename T> static T loadDirect(const Cell<T> &C) {
    return C.loadDirect();
  }
  template <typename T>
  static void storeDirect(Cell<T> &C, std::type_identity_t<T> Value) {
    C.storeDirect(Value);
  }

  template <typename T> static const void *cellAddr(const Cell<T> &C) {
    return static_cast<const TObjBase *>(&C);
  }
  template <typename T> static uint64_t cellRaw(const Cell<T> &C) {
    // Payload word 0 — what LibTm's access observer reports; identical
    // to the TVar encoding for word-sized trivially copyable T.
    return const_cast<Cell<T> &>(C).words()[0].load(
        std::memory_order_relaxed);
  }

  template <typename T> static bool cellLocked(Stm &, const Cell<T> &C) {
    return LockTable::decode(const_cast<Cell<T> &>(C).meta().load(
                                 std::memory_order_relaxed))
        .Locked;
  }
};

/// Word-based backend over the policy-templated engine family
/// (src/engine): only the residue probe depends on the policy's table
/// type (stripe word vs ByteLock entry).
template <typename Policy>
struct EngineBackend : WordBackend<EngineStm<Policy>, EngineTxn<Policy>> {
  static constexpr const char *Name = Policy::Name;

  /// Post-run residue probe (quiescent use only). A ByteLock entry is
  /// residue-held when its Owner word or any reader byte survives; a
  /// stripe word when its lock bit does.
  template <typename T>
  static bool cellLocked(EngineStm<Policy> &S, const TVar<T> &C) {
    auto &Word = const_cast<TVar<T> &>(C).word();
    if constexpr (std::is_same_v<typename Policy::Table, ByteLockTable>)
      return S.table().lockFor(&Word).heldByAnyone();
    else
      return LockTable::decode(S.table().stripeFor(&Word).load(
                                   std::memory_order_relaxed))
          .Locked;
  }
};

using OrecEagerBackend = EngineBackend<OrecEagerPolicy>;
using TlrwBackend = EngineBackend<TlrwPolicy>;
using TwoPlBackend = EngineBackend<TwoPlPolicy>;

} // namespace gstm

#endif // GSTM_TMDS_TMBACKEND_H
