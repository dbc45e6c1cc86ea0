//===- shard/ShardConfig.h - Sharded STM tier configuration --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the sharded STM tier (shard/Sharded.h): how many
/// shard contexts partition the orec/version space, how addresses map to
/// their home shard, and whether model-steered placement is armed. The
/// shape deliberately mirrors Tl2Config so existing harness code can
/// treat a ShardedStm like one more runtime configuration.
///
/// shardConfigCanonical() renders the knobs that change transactional
/// behavior into the canonical `key=value;` string ModelStore hashes into
/// ModelKey::ConfigHash — a sharded and an unsharded model of the same
/// workload must never collide in the store (see tools/model_ctl.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SHARD_SHARDCONFIG_H
#define GSTM_SHARD_SHARDCONFIG_H

#include "stm/Tl2.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace gstm {

/// Upper bound on shard contexts per runtime: participation masks are one
/// 64-bit word, mirroring the StatsShardCount sizing.
inline constexpr unsigned MaxShardCount = 64;

/// True when \p Count is a usable ShardConfig::ShardCount: a power of two
/// in [1, MaxShardCount]. Anything else indexes past the lock table, so
/// command-line front ends must reject it before building a ShardedStm.
constexpr bool isValidShardCount(unsigned Count) {
  return Count >= 1 && Count <= MaxShardCount && (Count & (Count - 1)) == 0;
}

/// How a word address maps to its home shard (the shard whose lock-table
/// slice, CommitRing and applied clock govern it).
enum class ShardHashKind : uint8_t {
  /// Murmur3-style avalanche finalizer, shard index from the top bits —
  /// statistically independent of the per-shard stripe hash, which takes
  /// the low bits of its own mix.
  Mix,
  /// Single Fibonacci multiply. Cheaper, but allocation-correlated
  /// addresses clump; kept for A/B comparisons like StripeHashKind.
  Fibonacci,
};

/// Stable names ("mix" / "fib") for canonical strings and CLI flags.
const char *shardHashName(ShardHashKind Kind);
/// Inverse of shardHashName; returns false for unknown names.
bool shardHashFromName(const std::string &Name, ShardHashKind &Out);

/// Construction-time configuration of a ShardedStm runtime.
struct ShardConfig {
  /// Shard contexts partitioning the orec/version space. Power of two in
  /// [1, MaxShardCount]; 1 degenerates to an unsharded TL2 with the
  /// sharded tier's bookkeeping.
  unsigned ShardCount = 4;
  /// Address -> home-shard hash.
  ShardHashKind ShardHash = ShardHashKind::Mix;
  /// Model-steered home-shard placement armed (shard/Steering.h). The
  /// flag is part of the canonical config string: steered and unsteered
  /// models of the same workload are distinct keys.
  bool Steering = false;
  /// Stripes per shard slice of the lock table (2^Bits each). Two bits
  /// below the Tl2 default: every shard gets a slice, so the total stripe
  /// count scales with ShardCount.
  unsigned LockTableBits = 18;
  /// Per-shard commit-ring slots (2^Bits each).
  unsigned CommitRingBits = 13;
  /// Stripe hash within a shard's slice (LockTable's address-to-stripe
  /// mapping).
  StripeHashKind StripeHash = StripeHashKind::Mix;
  /// Bounded spin on a locked stripe during cross-shard prepare before
  /// the attempt gives up and aborts. Ordered (shard, stripe) acquisition
  /// makes the waiting deadlock-free; the bound keeps a descheduled lock
  /// holder from stalling the prepare indefinitely. Each spin iteration
  /// counts into StatsShard::PrepareRetries.
  unsigned PrepareSpinLimit = 64;
  BackoffKind Backoff = BackoffKind::Yield;
  /// Scheduler perturbation, as Tl2Config::PreemptShift. 0 = off.
  unsigned PreemptShift = 0;
  /// Per-attempt wall-clock latency accumulation, as Tl2Config.
  bool TrackAttemptLatency = false;
  /// Fault injection for the checker self-test, shared with Tl2Config;
  /// all off by default.
  Tl2FaultInjection Fault;
};

/// Canonical `key=value;` rendering of the knobs that select distinct
/// model keys: shard count, address->shard hash kind, and steering.
/// Appended to a workload's existing canonical config string before
/// ModelStore::hashConfigString (see tools/model_ctl.cpp keyFor).
std::string shardConfigCanonical(const ShardConfig &Cfg);

} // namespace gstm

#endif // GSTM_SHARD_SHARDCONFIG_H
