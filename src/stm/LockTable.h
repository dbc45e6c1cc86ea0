//===- stm/LockTable.h - Striped versioned write-locks -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TL2's per-stripe versioned write-locks. Every transactional memory word
/// maps to a stripe (its line's hash above its offset in the line); the
/// stripe word either holds the version number of the last commit that
/// wrote any word in the stripe (unlocked), or the identity of the
/// transaction currently holding the commit-time lock (locked). Embedding
/// the owner's (txid, thread) pair in the locked word lets an aborting
/// reader attribute its abort to a concrete transaction, which is what
/// the paper's thread-transactional-state tuples require.
///
/// An object (TObj, libtm/LibTm.h) on the flat runtime is its own orec:
/// its Meta word carries the same encoding and no stripe is hashed for
/// it. Its lock key is the Meta address with bit 63 set (objectKey), so
/// one key space names both kinds of orec: stripeAt/indexOf map a stripe
/// index or a tagged key to its word and back, and ascending keys order
/// the table's stripes before the objects, the objects by address.
///
/// Word layout:
///   bit 0      — 1 = locked, 0 = unlocked
///   bits 1..63 — unlocked: version; locked: packed TxThreadPair of owner
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_LOCKTABLE_H
#define GSTM_STM_LOCKTABLE_H

#include "support/Ids.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace gstm {

/// Murmur3's 64-bit avalanche finalizer: every key bit reaches every
/// result bit, so allocation-correlated keys do not clump into runs.
inline uint64_t mix64(uint64_t Key) {
  Key ^= Key >> 33;
  Key *= 0xff51afd7ed558ccdULL;
  Key ^= Key >> 29;
  Key *= 0xc4ceb9fe1a85ec53ULL;
  Key ^= Key >> 32;
  return Key;
}

/// Per-word address hash behind the sharded tier's home shards, which
/// take its top bits. Lock tables do not use it: they hash the 64-byte
/// line instead (LockTable::indexFor), so the two mappings stay
/// statistically independent.
inline uint64_t mixAddress(const void *Addr) {
  return mix64(reinterpret_cast<uintptr_t>(Addr) >> 3);
}

/// A stripe word snapshot, decoded.
struct StripeState {
  bool Locked;
  /// Valid when unlocked.
  uint64_t Version;
  /// Valid when locked.
  TxThreadPair Owner;
};

/// Fixed-size table of versioned stripe locks, one table line per data
/// line. indexFor hashes the address's 64-byte line with mix64 and keeps
/// the word's offset in that line as the low 3 bits of the index; the
/// stripe array starts on a 64-byte boundary, so the 8 words of one data
/// line use the 8 stripes of one table line. Lines spread across the
/// table, while a walk over data already in cache finds its stripes in
/// cache too.
class LockTable {
public:
  /// Creates a table with 2^\p Bits stripes, all unlocked at version 0.
  /// The storage is a plain new[] with 7 spare words, rounded up to the
  /// line: an aligned operator new maps fresh pages for every table.
  explicit LockTable(unsigned Bits)
      : Mask((size_t{1} << Bits) - 1),
        Storage(new std::atomic<uint64_t>[(size_t{1} << Bits) +
                                          WordsPerLine - 1]),
        Stripes(alignToLine(Storage.get())) {
    assert(Bits >= 4 && Bits <= 28 && "unreasonable lock table size");
    for (size_t I = 0; I <= Mask; ++I)
      Stripes[I].store(0, std::memory_order_relaxed);
  }

  /// Number of stripes in the table.
  size_t size() const { return Mask + 1; }

  /// Returns the stripe word covering \p Addr.
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Stripes[indexFor(Addr)];
  }

  /// Returns the stripe index covering \p Addr (exposed for commit-time
  /// lock ordering and for tests): the line's hash above the word's
  /// offset in its line.
  size_t indexFor(const void *Addr) const {
    const uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    const uint64_t Line = mix64(A >> 6);
    return static_cast<size_t>((Line << 3) | ((A >> 3) & (WordsPerLine - 1))) &
           Mask;
  }

  /// Tag of an object's lock key: above every stripe index and every
  /// user-space address.
  static constexpr uint64_t ObjectKeyBit = uint64_t{1} << 63;

  /// Lock key of the object whose orec is \p Meta.
  static uint64_t objectKey(const std::atomic<uint64_t> *Meta) {
    return reinterpret_cast<uintptr_t>(Meta) | ObjectKeyBit;
  }

  /// Lock key of \p Orec (inverse of stripeAt): its index when it is one
  /// of this table's stripes, else its objectKey.
  uint64_t indexOf(const std::atomic<uint64_t> *Orec) const {
    if (Orec >= Stripes && Orec <= &Stripes[Mask])
      return static_cast<uint64_t>(Orec - Stripes);
    return objectKey(Orec);
  }

  // Stripe version publishes on the single-fence commit paths are
  // relaxed stores; the one release fence after writeback is what makes
  // a reader's acquire load of the stripe observe the new data.
  // stm-order: publish(stripeAt) requires release-fence-before
  std::atomic<uint64_t> &stripeAt(uint64_t Key) {
    if (Key & ObjectKeyBit)
      return *reinterpret_cast<std::atomic<uint64_t> *>(Key & ~ObjectKeyBit);
    assert(Key <= Mask && "stripe index out of range");
    return Stripes[Key];
  }

  /// Decodes a raw stripe word.
  static StripeState decode(uint64_t Word) {
    StripeState S;
    S.Locked = (Word & 1) != 0;
    S.Version = Word >> 1;
    S.Owner = static_cast<TxThreadPair>(Word >> 1);
    return S;
  }

  /// Encodes an unlocked word carrying \p Version.
  static uint64_t encodeVersion(uint64_t Version) {
    assert(Version < (uint64_t{1} << 63) && "version overflow");
    return Version << 1;
  }

  /// Encodes a locked word owned by \p Owner.
  static uint64_t encodeLocked(TxThreadPair Owner) {
    return (static_cast<uint64_t>(Owner) << 1) | 1;
  }

private:
  static constexpr size_t WordsPerLine = 8;

  static std::atomic<uint64_t> *alignToLine(std::atomic<uint64_t> *P) {
    const uintptr_t Line = WordsPerLine * sizeof(uint64_t);
    const uintptr_t A = reinterpret_cast<uintptr_t>(P);
    return P + ((Line - A % Line) % Line) / sizeof(uint64_t);
  }

  size_t Mask;
  std::unique_ptr<std::atomic<uint64_t>[]> Storage;
  /// Storage rounded up to a 64-byte boundary.
  std::atomic<uint64_t> *Stripes;
};

} // namespace gstm

#endif // GSTM_STM_LOCKTABLE_H
