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

const char *gstm::shardHashName(ShardHashKind Kind) {
  return Kind == ShardHashKind::Mix ? "mix" : "fib";
}

bool gstm::shardHashFromName(const std::string &Name, ShardHashKind &Out) {
  if (Name == "mix") {
    Out = ShardHashKind::Mix;
    return true;
  }
  if (Name == "fib") {
    Out = ShardHashKind::Fibonacci;
    return true;
  }
  return false;
}

std::string gstm::shardConfigCanonical(const ShardConfig &Cfg) {
  std::string S = "shards=" + std::to_string(Cfg.ShardCount) + ";";
  S += "shard-hash=";
  S += shardHashName(Cfg.ShardHash);
  S += ";steer=";
  S += Cfg.Steering ? '1' : '0';
  S += ';';
  return S;
}

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
      Locks(Config.LockTableBits + std::countr_zero(Config.ShardCount),
            Config.StripeHash) {
  assert(isValidShardCount(Cfg.ShardCount) &&
         "shard count must be a power of two in [1, 64]");
  Shards.reserve(Cfg.ShardCount);
  for (unsigned I = 0; I < Cfg.ShardCount; ++I)
    Shards.push_back(std::make_unique<ShardContext>(Cfg));
}

size_t ShardedStm::shardFor(const void *Addr) const {
  if (const ShardPlacement *P = Placement.load(std::memory_order_acquire)) {
    int Explicit = P->lookup(Addr);
    if (Explicit >= 0)
      return static_cast<size_t>(Explicit);
  }
  uint64_t Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
  if (Cfg.ShardHash == ShardHashKind::Mix) {
    // Same avalanche finalizer as LockTable's Mix hash, but the shard
    // index comes from the top bits while stripe indexes take the low
    // bits — the two mappings stay statistically independent.
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdULL;
    Key ^= Key >> 29;
    Key *= 0xc4ceb9fe1a85ec53ULL;
    Key ^= Key >> 32;
    return static_cast<size_t>(Key >> 58) & (Cfg.ShardCount - 1);
  }
  return static_cast<size_t>(Key * 0x9e3779b97f4a7c15ULL >> 58) &
         (Cfg.ShardCount - 1);
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

template class Tl2Descriptor<ShardedStm>;

} // namespace gstm
