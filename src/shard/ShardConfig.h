//===- shard/ShardConfig.h - Sharded STM tier configuration --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the sharded STM tier (shard/Sharded.h): the one
/// runtime config (EngineConfig) plus how many shard contexts partition
/// the orec/version space. Model-steered placement is not a config knob:
/// ShardedStm::setPlacement arms it at run time (shard/Steering.h).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SHARD_SHARDCONFIG_H
#define GSTM_SHARD_SHARDCONFIG_H

#include "engine/TxnExecutor.h"

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

/// Construction-time configuration of a ShardedStm runtime. TableBits
/// sizes each shard's slice of the lock table (0 = 2^18 stripes, two bits
/// below flat TL2, because the total scales with ShardCount), and
/// CommitRingBits each shard's commit ring.
struct ShardConfig : EngineConfig {
  /// Shard contexts partitioning the orec/version space. Power of two in
  /// [1, MaxShardCount]; 1 degenerates to an unsharded TL2 with the
  /// sharded tier's bookkeeping.
  unsigned ShardCount = 4;
};

} // namespace gstm

#endif // GSTM_SHARD_SHARDCONFIG_H
