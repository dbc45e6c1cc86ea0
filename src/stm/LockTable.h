//===- stm/LockTable.h - Striped versioned write-locks -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TL2's per-stripe versioned write-locks. Every transactional memory word
/// hashes to a stripe; the stripe word either holds the version number of
/// the last commit that wrote any word in the stripe (unlocked), or the
/// identity of the transaction currently holding the commit-time lock
/// (locked). Embedding the owner's (txid, thread) pair in the locked word
/// lets an aborting reader attribute its abort to a concrete transaction,
/// which is what the paper's thread-transactional-state tuples require.
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

/// Address hash behind every lock table and the sharded tier's home
/// shards: a murmur3-style avalanche finalizer over the word index. Every
/// address bit reaches every result bit, so allocation-correlated
/// pointers do not clump into stripe runs; tables index with the low
/// bits, the sharded tier picks the home shard from the top bits, and
/// the two mappings stay statistically independent.
inline uint64_t mixAddress(const void *Addr) {
  uint64_t Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
  Key ^= Key >> 33;
  Key *= 0xff51afd7ed558ccdULL;
  Key ^= Key >> 29;
  Key *= 0xc4ceb9fe1a85ec53ULL;
  Key ^= Key >> 32;
  return Key;
}

/// A stripe word snapshot, decoded.
struct StripeState {
  bool Locked;
  /// Valid when unlocked.
  uint64_t Version;
  /// Valid when locked.
  TxThreadPair Owner;
};

/// Fixed-size table of versioned stripe locks, indexed by address hash.
class LockTable {
public:
  /// Creates a table with 2^\p Bits stripes, all unlocked at version 0.
  explicit LockTable(unsigned Bits = 20)
      : Mask((size_t{1} << Bits) - 1),
        Stripes(new std::atomic<uint64_t>[size_t{1} << Bits]) {
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
  /// lock ordering and for tests).
  size_t indexFor(const void *Addr) const {
    return static_cast<size_t>(mixAddress(Addr)) & Mask;
  }

  /// Index of \p Stripe, one of this table's stripes (inverse of
  /// stripeAt).
  size_t indexOf(const std::atomic<uint64_t> *Stripe) const {
    assert(Stripe >= Stripes.get() && Stripe <= &Stripes[Mask] &&
           "stripe of another table");
    return static_cast<size_t>(Stripe - Stripes.get());
  }

  // Stripe version publishes on the single-fence commit paths are
  // relaxed stores; the one release fence after writeback is what makes
  // a reader's acquire load of the stripe observe the new data.
  // stm-order: publish(stripeAt) requires release-fence-before
  std::atomic<uint64_t> &stripeAt(size_t Index) {
    assert(Index <= Mask && "stripe index out of range");
    return Stripes[Index];
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
  size_t Mask;
  std::unique_ptr<std::atomic<uint64_t>[]> Stripes;
};

} // namespace gstm

#endif // GSTM_STM_LOCKTABLE_H
