//===- stm/CommitRing.h - Version -> committer attribution ring ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free ring that records, for recent commit versions, which
/// (transaction, thread) produced them. A TL2 reader that aborts because a
/// stripe's version exceeds its read version can look the version up here
/// and attribute the abort to the commit that caused it. The attribution
/// feeds the known/unknown-committer split of the abort telemetry and the
/// Karma/Greedy contention managers; model tuples are grouped by sequence
/// and do not read it. Entries are overwritten after `size` further
/// commits; a failed lookup degrades gracefully to an unattributed abort.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_COMMITRING_H
#define GSTM_STM_COMMITRING_H

#include "support/Ids.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace gstm {

/// Largest ring a runtime may request: 2^24 slots of 16 bytes (256 MiB).
inline constexpr unsigned MaxCommitRingBits = 24;

/// Fixed-size version-indexed ring of recent committers.
class CommitRing {
public:
  /// A ring of 2^\p Bits slots, \p Bits in [1, MaxCommitRingBits].
  explicit CommitRing(unsigned Bits = 13)
      : Mask((size_t{1} << Bits) - 1), Slots(new Slot[size_t{1} << Bits]) {
    assert(Bits >= 1 && Bits <= MaxCommitRingBits &&
           "commit ring size out of range");
  }

  /// Records that commit version \p Version was produced by \p Committer.
  void record(uint64_t Version, TxThreadPair Committer) {
    Slot &S = Slots[Version & Mask];
    S.Pair.store(Committer, std::memory_order_relaxed);
    S.Version.store(Version, std::memory_order_release);
  }

  /// Looks up the committer of \p Version. Returns true and fills
  /// \p Committer on success; false when the entry has been overwritten.
  bool lookup(uint64_t Version, TxThreadPair &Committer) const {
    const Slot &S = Slots[Version & Mask];
    if (S.Version.load(std::memory_order_acquire) != Version)
      return false;
    TxThreadPair P = S.Pair.load(std::memory_order_relaxed);
    // Re-check to guard against a concurrent overwrite between the loads.
    if (S.Version.load(std::memory_order_acquire) != Version)
      return false;
    Committer = P;
    return true;
  }

private:
  struct Slot {
    std::atomic<uint64_t> Version{~uint64_t{0}};
    std::atomic<TxThreadPair> Pair{0};
  };

  size_t Mask;
  std::unique_ptr<Slot[]> Slots;
};

} // namespace gstm

#endif // GSTM_STM_COMMITRING_H
