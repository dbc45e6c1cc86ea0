//===- engine/ByteLock.h - TLRW-style reader-writer byte locks -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The visible-reader lock table behind the TLRW-style engine (Dice &
/// Shavit, SPAA'10 "TLRW: return of the read/write lock"). Where TL2's
/// stripe word packs lock-or-version into one word and keeps readers
/// invisible, a ByteLock spends a cache line per stripe to make readers
/// *visible*: each worker thread owns one byte it sets before reading and
/// clears when its transaction ends. A writer first claims the exclusive
/// Owner word, then spin-drains every other reader byte to zero before
/// touching data — after which no commit-time read validation is needed
/// anywhere in the engine, because nothing a live reader depends on can
/// change under it.
///
/// Layout (one 128-byte entry = two cache lines):
///   Owner   — 0 when free, else the writer's TxThreadPair in
///             LockTable::encodeLocked() encoding (pair << 1 | 1, so a
///             held word is never 0)
///   Version — version of the last commit that wrote any word mapping to
///             this entry; published by the shared VersionClock so the
///             history checkers can validate reads against rv exactly as
///             they do for TL2 stripes
///   Readers — one byte per thread slot
///
/// The reader-vs-writer handshake is a Dekker pattern: readers store
/// their byte then load Owner, writers CAS Owner then load the bytes;
/// both sides use seq_cst on those four accesses so the "both miss each
/// other" interleaving is excluded by the single total order.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_BYTELOCK_H
#define GSTM_ENGINE_BYTELOCK_H

#include "stm/LockTable.h"
#include "support/Ids.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace gstm {

/// One reader-writer byte-lock entry. See the file comment for the
/// protocol; the entry itself is a passive bag of atomics.
struct alignas(128) ByteLock {
  /// Worker-thread slots. Covers the StatsShardCount thread cap with room
  /// to spare; the two-cache-line layout leaves 112 bytes after Owner and
  /// Version.
  static constexpr size_t MaxReaderSlots = 112;

  std::atomic<uint64_t> Owner{0};
  // Readers validate against Version; writers republish it at commit.
  // stm-order: pair(Version) acquire-load release-store
  std::atomic<uint64_t> Version{0};
  std::atomic<uint8_t> Readers[MaxReaderSlots] = {};

  /// True when any thread currently holds the entry in any mode; used by
  /// the harness's post-run residue check.
  bool heldByAnyone() const {
    if (Owner.load(std::memory_order_acquire) != 0)
      return true;
    for (size_t I = 0; I < MaxReaderSlots; ++I)
      if (Readers[I].load(std::memory_order_acquire) != 0)
        return true;
    return false;
  }
};

static_assert(sizeof(ByteLock) == 128, "ByteLock must fill two lines");

/// Fixed-size table of ByteLocks indexed by address hash — the
/// visible-reader analogue of LockTable, sharing its address mapping
/// (mixAddress) so engine families hash identically.
class ByteLockTable {
public:
  explicit ByteLockTable(unsigned Bits = 16)
      : Mask((size_t{1} << Bits) - 1),
        Entries(new ByteLock[size_t{1} << Bits]) {
    assert(Bits >= 4 && Bits <= 24 && "unreasonable byte-lock table size");
  }

  size_t size() const { return Mask + 1; }

  ByteLock &lockFor(const void *Addr) { return Entries[indexFor(Addr)]; }

  ByteLock &lockAt(size_t Index) {
    assert(Index <= Mask && "byte-lock index out of range");
    return Entries[Index];
  }

  /// Same address-to-index mapping as LockTable::indexFor.
  size_t indexFor(const void *Addr) const {
    return static_cast<size_t>(mixAddress(Addr)) & Mask;
  }

private:
  size_t Mask;
  std::unique_ptr<ByteLock[]> Entries;
};

} // namespace gstm

#endif // GSTM_ENGINE_BYTELOCK_H
