//===- stamp/TmHashMap.h - Transactional chained hash map ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-bucket chained hash map built from TmList buckets, matching
/// STAMP's hashtable: the bucket array is immutable (no transactional
/// resize), so two transactions conflict only when they touch the same
/// bucket chain. Genome's segment dedup set and intruder's fragment
/// reassembly map use this.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMHASHMAP_H
#define GSTM_STAMP_TMHASHMAP_H

#include "stamp/TmList.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>

namespace gstm {

/// Chained transactional hash map with a fixed number of buckets.
class TmHashMap {
public:
  /// The largest bucket count: the largest power of two in 32 bits.
  static constexpr uint32_t MaxBuckets = uint32_t{1} << 31;

  /// \p NumBuckets, in [1, MaxBuckets], is rounded up to a power of two.
  explicit TmHashMap(uint32_t NumBuckets);

  /// The bucket count a map asked for \p NumBuckets gets.
  static constexpr uint32_t bucketCountFor(uint32_t NumBuckets) {
    assert(NumBuckets > 0 && "hash map needs at least one bucket");
    assert(NumBuckets <= MaxBuckets && "bucket count must fit 32 bits");
    return std::bit_ceil(NumBuckets);
  }

  /// Inserts; returns false when the key already exists. \p Spare reuses
  /// one node across the attempts of a transaction (TmList::insert).
  bool insert(Tl2Txn &Tx, TmList::Pool &Nodes, uint64_t Key, uint64_t Value,
              uint32_t *Spare = nullptr) {
    return bucketFor(Key).insert(Tx, Nodes, Key, Value, Spare);
  }

  /// Inserts or overwrites; returns true when a new node was created.
  /// \p Spare as in insert.
  bool insertOrAssign(Tl2Txn &Tx, TmList::Pool &Nodes, uint64_t Key,
                      uint64_t Value, uint32_t *Spare = nullptr) {
    return bucketFor(Key).insertOrAssign(Tx, Nodes, Key, Value, Spare);
  }

  std::optional<uint64_t> find(Tl2Txn &Tx, TmList::Pool &Nodes,
                               uint64_t Key) {
    return bucketFor(Key).find(Tx, Nodes, Key);
  }

  std::optional<uint64_t> remove(Tl2Txn &Tx, TmList::Pool &Nodes,
                                 uint64_t Key) {
    return bucketFor(Key).remove(Tx, Nodes, Key);
  }

  uint32_t numBuckets() const { return Mask + 1; }

  /// Non-transactional sweep over all entries (quiescent verification).
  template <typename Fn> void forEachDirect(TmList::Pool &Nodes, Fn &&Cb) {
    for (uint32_t B = 0; B <= Mask; ++B)
      Buckets[B].forEachDirect(Nodes, Cb);
  }

private:
  TmList &bucketFor(uint64_t Key) {
    uint64_t H = Key * 0x9e3779b97f4a7c15ULL;
    return Buckets[(H >> 32) & Mask];
  }

  uint32_t Mask;
  std::unique_ptr<TmList[]> Buckets;
};

} // namespace gstm

#endif // GSTM_STAMP_TMHASHMAP_H
