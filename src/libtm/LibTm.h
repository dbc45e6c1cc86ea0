//===- libtm/LibTm.h - Object-based STM (LibTM reproduction) -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reproduction of the LibTM configuration the paper uses for SynQuake
/// (Lupei et al., PPoPP'10): *object-granularity* conflict detection with
/// fully-optimistic reads (no read locks) and write locks acquired only at
/// commit, with conflicts resolved against readers (an optimistic reader
/// whose object was overwritten aborts — the "abort-readers" policy).
/// LibTM itself is closed source. Its algorithm is TL2's, and its orec
/// layout is the flat TL2 runtime's for objects: the versioned-lock word
/// lives *inside each object* (no address hashing, no false sharing
/// between distinct objects, the property SynQuake relies on), and an
/// object spans several words, snapshotted and written back whole under
/// that one word. So LibTm is EngineStm under the TL2 policy
/// (engine/Tl2.h) — the very runtime Tl2Stm names — and LibTxn its
/// descriptor; a transaction that touches TObjs only never reads the
/// runtime's word table.
///
/// Usage:
/// \code
///   LibTm Tm;
///   TObj<PlayerState> Player;
///   LibTxn Txn(Tm, /*Thread=*/0);
///   Txn.run(/*Tx=*/0, [&](LibTxn &Tx) {
///     PlayerState S = Tx.read(Player);
///     S.Health -= 10;
///     Tx.write(Player, S);
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LIBTM_LIBTM_H
#define GSTM_LIBTM_LIBTM_H

#include "engine/Tl2.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace gstm {

/// A transactional object holding a trivially copyable \p T: its
/// versioned-lock word (the TL2 stripe encoding) followed by the payload,
/// stored as relaxed atomic words so speculative snapshot copies are
/// well-defined; torn snapshots are rejected by the lock word's re-check.
/// The lock word comes first, so an object's address is its identity —
/// the address the access observer and the history report. On the flat
/// runtime the lock word is the object's orec, so the version it carries
/// outlives a runtime: use an object under the runtime that wrote it
/// (direct stores leave it at version 0).
template <typename T> class TObj {
  static_assert(std::is_trivially_copyable_v<T>,
                "TObj requires a trivially copyable payload");

public:
  static constexpr size_t WordCount = (sizeof(T) + 7) / 8;

  TObj() {
    // The payload atomics start at zero (C++20 value-initialises them),
    // which is T{} already when T has no default member initialisers.
    if constexpr (!std::is_trivially_default_constructible_v<T>)
      storeDirect(T{});
  }
  explicit TObj(const T &Value) { storeDirect(Value); }
  TObj(const TObj &) = delete;
  TObj &operator=(const TObj &) = delete;

  /// Non-transactional accessors; quiescent use only.
  T loadDirect() const {
    uint64_t Raw[WordCount];
    for (size_t I = 0; I < WordCount; ++I)
      Raw[I] = Payload[I].load(std::memory_order_relaxed);
    return decode(Raw);
  }
  void storeDirect(const T &Value) {
    uint64_t Raw[WordCount];
    encode(Value, Raw);
    for (size_t I = 0; I < WordCount; ++I)
      Payload[I].store(Raw[I], std::memory_order_relaxed);
  }

  const std::atomic<uint64_t> &meta() const { return Meta; }
  std::atomic<uint64_t> *words() { return Payload; }
  const std::atomic<uint64_t> *words() const { return Payload; }

  /// Payload words of \p Value, padding zeroed.
  static void encode(const T &Value, uint64_t *Raw) {
    Raw[WordCount - 1] = 0;
    std::memcpy(Raw, &Value, sizeof(T));
  }
  static T decode(const uint64_t *Raw) {
    T Value;
    std::memcpy(static_cast<void *>(&Value), Raw, sizeof(T));
    return Value;
  }

private:
  std::atomic<uint64_t> Meta{0};
  std::atomic<uint64_t> Payload[WordCount];
};

/// One object-based STM runtime instance: the flat TL2 runtime, whose
/// orec for a TObj is the object's own Meta word. A held object lock
/// aborts the commit at once, as on the flat table. The access observer
/// sees accesses object-granular: Addr = the object, Value = payload
/// word 0.
using LibTm = Tl2Stm;

/// TL2 over the objects' orecs (Tl2Txn, instantiated in engine/Tl2.cpp).
using LibTxn = Tl2Txn;

} // namespace gstm

#endif // GSTM_LIBTM_LIBTM_H
