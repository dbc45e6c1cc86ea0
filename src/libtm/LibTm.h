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
/// LibTM itself is closed source; this implementation reuses TL2's global
/// version clock for commit-time validation but keeps LibTM's defining
/// characteristics: metadata lives *inside each object* (no address
/// hashing, no false sharing between distinct objects, the property
/// SynQuake relies on) and objects are multi-word.
///
/// The same TxEventObserver / StartGate hooks as the TL2 runtime plug the
/// model layer in unchanged.
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

#include "engine/TxnExecutor.h"
#include "stm/CommitRing.h"
#include "stm/LockTable.h"
#include "stm/Observer.h"
#include "stm/VersionClock.h"
#include "support/Ids.h"
#include "support/MiniVector.h"
#include "support/PtrIndexMap.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

namespace gstm {

/// Type-erased base of every transactional object: the versioned-lock
/// metadata word (same encoding as the TL2 stripe words) plus the
/// word-granular payload accessors used by the runtime.
class TObjBase {
public:
  explicit TObjBase(size_t PayloadWords) : NumWords(PayloadWords) {}
  TObjBase(const TObjBase &) = delete;
  TObjBase &operator=(const TObjBase &) = delete;
  virtual ~TObjBase() = default;

  // Commit publishes the meta word with a relaxed store behind one
  // release fence; see LibTxn::commitOrThrow.
  // stm-order: publish(meta) requires release-fence-before
  std::atomic<uint64_t> &meta() { return Meta; }
  size_t numWords() const { return NumWords; }

  virtual std::atomic<uint64_t> *words() = 0;

private:
  std::atomic<uint64_t> Meta{0};
  size_t NumWords;
};

/// A transactional object holding a trivially copyable \p T. The payload
/// is stored as relaxed atomic words so speculative snapshot copies are
/// well-defined; torn snapshots are rejected by the metadata re-check.
template <typename T> class TObj : public TObjBase {
  static_assert(std::is_trivially_copyable_v<T>,
                "TObj requires a trivially copyable payload");

public:
  static constexpr size_t WordCount = (sizeof(T) + 7) / 8;

  TObj() : TObjBase(WordCount) { storeDirect(T{}); }
  explicit TObj(const T &Value) : TObjBase(WordCount) {
    storeDirect(Value);
  }

  /// Non-transactional accessors; quiescent use only.
  T loadDirect() const {
    uint64_t Raw[WordCount];
    for (size_t I = 0; I < WordCount; ++I)
      Raw[I] = Payload[I].load(std::memory_order_relaxed);
    T Value;
    std::memcpy(&Value, Raw, sizeof(T));
    return Value;
  }
  void storeDirect(const T &Value) {
    uint64_t Raw[WordCount] = {};
    std::memcpy(Raw, &Value, sizeof(T));
    for (size_t I = 0; I < WordCount; ++I)
      Payload[I].store(Raw[I], std::memory_order_relaxed);
  }

  std::atomic<uint64_t> *words() override { return Payload; }

private:
  std::atomic<uint64_t> Payload[WordCount];
};

/// One object-based STM runtime instance. Its hooks (TxHooks) are the
/// engine family's; the access observer sees accesses object-granular:
/// Addr = the TObjBase, Value = payload word 0. Of the EngineConfig it
/// reads CommitRingBits, PreemptShift and TrackAttemptLatency; it has no
/// table to size and no mutant, so TableBits and Fault must stay unset.
class LibTm : public TxHooks {
public:
  explicit LibTm(const EngineConfig &Config = EngineConfig())
      : Cfg(Config), Ring(Config.CommitRingBits) {
    assert(Config.TableBits == 0 && "LibTm has no lock table");
    assert(!Config.Fault.SkipReadValidation &&
           !Config.Fault.TornVersionPublish &&
           !Config.Fault.SkipUndoReplay && !Config.Fault.SkipReaderDrain &&
           "LibTm has no fault-injection mutant");
  }

  LibTm(const LibTm &) = delete;
  LibTm &operator=(const LibTm &) = delete;

  const EngineConfig &config() const { return Cfg; }
  VersionClock &clock() { return Clock; }
  CommitRing &commitRing() { return Ring; }
  /// Sharded per-thread telemetry (see stm/StatsShard.h).
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

private:
  EngineConfig Cfg;
  VersionClock Clock;
  CommitRing Ring;
  Tl2Stats Counters;
};

/// Per-thread transaction descriptor for LibTm. The retry loop (`run`)
/// comes from the shared engine-family executor (engine/TxnExecutor.h),
/// which also gives LibTm contention-manager support for free.
class LibTxn : public TxnExecutor<LibTxn> {
public:
  LibTxn(LibTm &Tm, ThreadId Thread)
      : TxnExecutor<LibTxn>(Thread), S(Tm), Thread(Thread),
        Shard(&Tm.stats().shard(Thread)) {}
  LibTxn(const LibTxn &) = delete;
  LibTxn &operator=(const LibTxn &) = delete;

  /// Transactional snapshot read of an object.
  template <typename T> T read(const TObj<T> &Obj) {
    auto &Mutable = const_cast<TObj<T> &>(Obj);
    uint64_t Raw[TObj<T>::WordCount];
    readWords(Mutable, Raw);
    T Value;
    std::memcpy(&Value, Raw, sizeof(T));
    return Value;
  }

  /// Transactional (buffered) whole-object write. The value type is
  /// non-deduced so braced/convertible values bind to the object's type.
  template <typename T>
  void write(TObj<T> &Obj, const std::type_identity_t<T> &Value) {
    uint64_t Raw[TObj<T>::WordCount] = {};
    std::memcpy(Raw, &Value, sizeof(T));
    writeWords(Obj, Raw);
  }

  [[noreturn]] void retryAbort();

  ThreadId threadId() const { return Thread; }

private:
  friend class TxnExecutor<LibTxn>;

  /// Executor contract (engine/TxnExecutor.h).
  LibTm &stm() { return S; }
  StatsShard *shard() { return Shard; }
  /// Locations this attempt opened (contention-manager currency): logged
  /// reads plus buffered object writes.
  uint64_t opensCount() const { return ReadSet.size() + WriteObjs.size(); }

  void begin(TxId Tx);
  /// Copies a validated snapshot of \p Obj into \p Out (or the buffered
  /// write if present).
  void readWords(TObjBase &Obj, uint64_t *Out);
  void writeWords(TObjBase &Obj, const uint64_t *In);
  /// Commits (returns wv, 0 if read-only) or reports the abort and throws.
  uint64_t commitOrThrow();
  void reportCommit(uint64_t Wv, uint32_t PriorAborts);
  /// Commit-time read-set revalidation (branch-free fast pass over the
  /// metadata words, attribution walk only when something is
  /// suspicious); throws on conflict.
  void validateReadSet(TxThreadPair Self);

  [[noreturn]] void abortOnOwner(TxThreadPair Owner, AbortSite Site);
  [[noreturn]] void abortOnVersion(uint64_t Version, AbortSite Site);
  /// Releases any commit locks and reports \p E (executor contract).
  void reportAbort(const AbortEvent &E);
  [[noreturn]] void reportAbortAndThrow(const AbortEvent &E);

  LibTm &S;
  ThreadId Thread;
  /// This thread's telemetry shard, resolved once at construction.
  StatsShard *Shard;
  TxId CurrentTx = 0;
  uint64_t Rv = 0;

  /// Per-attempt logs; inline-capacity containers for the same reasons
  /// as Tl2Policy's (no heap traffic for common transaction sizes, O(1)
  /// clear in begin(), grown capacity retained across the retry loop).
  MiniVector<TObjBase *, 64> ReadSet;
  /// Write set: object -> offset into WriteData (object's buffered
  /// payload words).
  MiniVector<TObjBase *, 32> WriteObjs;
  PtrIndexMap<uint32_t, 5> WriteIndex;
  MiniVector<uint64_t, 64> WriteData;
  /// Pre-lock metadata of objects locked so far during commit.
  MiniVector<std::pair<TObjBase *, uint64_t>, 32> Acquired;
};

} // namespace gstm

#endif // GSTM_LIBTM_LIBTM_H
