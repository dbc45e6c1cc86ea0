//===- shard/Sharded.cpp - Sharded TL2 tier implementation ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "shard/Sharded.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace gstm;

void ShardPlacement::addRange(const void *Begin, const void *End,
                              unsigned Shard) {
  assert(Begin < End && "empty placement range");
  Ranges.push_back(Range{reinterpret_cast<uintptr_t>(Begin),
                         reinterpret_cast<uintptr_t>(End), Shard});
  Finalized = false;
}

void ShardPlacement::finalize() {
  std::sort(Ranges.begin(), Ranges.end(),
            [](const Range &A, const Range &B) { return A.Begin < B.Begin; });
  for (size_t I = 1; I < Ranges.size(); ++I)
    assert(Ranges[I - 1].End <= Ranges[I].Begin &&
           "overlapping placement ranges");
  Finalized = true;
}

int ShardPlacement::lookup(const void *Addr) const {
  assert(Finalized && "lookup on an unfinalized placement");
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  auto It = std::upper_bound(
      Ranges.begin(), Ranges.end(), A,
      [](uintptr_t Key, const Range &R) { return Key < R.Begin; });
  if (It == Ranges.begin())
    return -1;
  --It;
  return A < It->End ? static_cast<int>(It->Shard) : -1;
}

ShardedStm::ShardedStm(const ShardConfig &Config)
    : Cfg(Config),
      SliceBits(Config.TableBits ? Config.TableBits : DefaultSliceBits),
      Locks(SliceBits + std::countr_zero(Config.ShardCount)) {
  assert(isValidShardCount(Cfg.ShardCount) &&
         "shard count must be a power of two in [1, 64]");
  Shards.reserve(Cfg.ShardCount);
  for (unsigned I = 0; I < Cfg.ShardCount; ++I)
    Shards.push_back(std::make_unique<ShardContext>(Cfg.CommitRingBits));
}

size_t ShardedStm::shardFor(const void *Addr) const {
  if (const ShardPlacement *P = Placement.load(std::memory_order_acquire)) {
    int Explicit = P->lookup(Addr);
    if (Explicit >= 0)
      return static_cast<size_t>(Explicit);
  }
  // The per-word hash's top bits; stripe indexes hash the line instead,
  // so the two mappings stay statistically independent.
  return static_cast<size_t>(mixAddress(Addr) >> 58) & (Cfg.ShardCount - 1);
}

void ShardedStm::committed(TxnState &L, ThreadId Thread, StatsShard &St) {
  const uint64_t Touched = L.ReadShardMask | L.WriteShardMask;
  // De-escalate the rv source once a commit proves the descriptor's
  // traffic fits its resident shard again.
  if ((Touched & ~(uint64_t{1} << L.ResidentShard)) == 0)
    L.UseGlobalRv = false;
  if (L.WriteShardMask == 0)
    return; // read-only: no locks, no publish, no 2PC
  const bool CrossShard = std::popcount(L.WriteShardMask) > 1;
  if (CrossShard)
    St.recordCrossShardCommit();
  if (L.Listener)
    L.Listener->onShardCommit(Thread, L.AffinityGroup, Touched, CrossShard);
}

namespace gstm {

template class EngineTxn<Tl2Policy, ShardedStm>;

} // namespace gstm
