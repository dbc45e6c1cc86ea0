//===- shard/Steering.h - Model-steered home-shard placement -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The home-shard placement pass of the sharded tier: learn, from the
/// guided run's own commit stream, which workload-level *groups* (key
/// partitions, table fragments — whatever the workload declares as a
/// placeable unit) drag transactions across shard boundaries, and emit a
/// ShardPlacement that re-homes each group's address range onto the shard
/// it conflicts with least.
///
/// On the ingest side the committing worker appends a (group,
/// touched-shard mask) event to its own single-producer single-consumer
/// ring: the worker alone advances Head (relaxed read of its own Head,
/// acquire read of Tail, release store of the new Head), the drainer alone
/// advances Tail, each lane sits on its own cache line, and a full ring
/// drops the event and counts it — wait-free, no shared producer cache
/// line. A control
/// thread drain()s the rings into per-group traffic/affinity accumulators
/// aged by decay() (exponential forgetting, so the placement tracks a
/// drifting workload just like the TSA edge weights), and
/// buildPlacement() compiles them into the next placement map.
///
/// The loop closes at *quiescent points only*: run a learning window,
/// drain, build, install via ShardedStm::setPlacement between windows —
/// never mid-run, because re-homing an address moves which orec partition
/// owns it (ShardPlacement doc). The steering objective is the
/// CrossShardCommits counter: EXPERIMENTS.md's `shards` axis shows the
/// cross-shard commit ratio dropping once the learned placement replaces
/// the scatter hash.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SHARD_STEERING_H
#define GSTM_SHARD_STEERING_H

#include "shard/Sharded.h"

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gstm {

/// Tunables of the steering learner.
struct SteeringConfig {
  /// Slots per per-thread ingest ring; a full ring drops (and counts).
  size_t RingCapacity = 4096;
  /// Multiplier applied to every accumulator per decay() epoch, in
  /// (0, 1]; 1.0 disables forgetting.
  double DecayFactor = 0.9;
  /// Load-balance slack of the greedy placement: a shard may carry up to
  /// Slack * (total traffic / shard count) before the builder diverts
  /// further groups to the least-loaded shard.
  double BalanceSlack = 1.25;
};

/// Counters describing steering activity. Exact only when workers have
/// quiesced.
struct SteeringStats {
  /// Events offered by commit paths (commits carrying an affinity group).
  uint64_t Observed = 0;
  /// Events rejected because a ring was full.
  uint64_t Dropped = 0;
  /// Events consumed by drain() so far.
  uint64_t Drained = 0;
  /// Drained events whose touched-shard mask spanned >= 2 shards.
  uint64_t CrossShardDrained = 0;
  /// Groups with accumulated telemetry.
  uint64_t Groups = 0;
};

/// Cross-shard conflict learner and placement builder.
///
/// Concurrency contract: onShardCommit() is called concurrently by worker
/// threads, each writing only its own lane. registerGroup(), drain(),
/// decay(), buildPlacement() and stats() must be called from one control
/// thread.
class ShardSteering : public ShardedTxn::CommitListener {
public:
  /// \p Threads lanes are allocated up front; ThreadIds seen by
  /// onShardCommit must be < Threads. \p Shards is the runtime's shard
  /// count (placement targets).
  ShardSteering(unsigned Threads, unsigned Shards,
                const SteeringConfig &Config = SteeringConfig());

  /// Declares group \p Group's address range [Begin, End): the placeable
  /// unit the builder may re-home. Telemetry for unregistered groups
  /// still accumulates but yields no placement range.
  void registerGroup(uint32_t Group, const void *Begin, const void *End);

  // ShardedTxn::CommitListener: wait-free append to the caller's lane.
  void onShardCommit(ThreadId Thread, uint32_t Group, uint64_t ShardMask,
                     bool CrossShard) override;

  /// Consumes every buffered event into the per-group accumulators.
  /// Returns the number of events consumed.
  size_t drain();

  /// One exponential-forgetting epoch over all accumulators.
  void decay();

  /// Greedy balanced placement from the drained telemetry: groups in
  /// descending traffic order each go to their highest-affinity shard
  /// (the shard their commits already touch most), overflowing to the
  /// least-loaded shard once a target exceeds the balance slack. The
  /// returned map is finalized and ready for ShardedStm::setPlacement —
  /// which the caller must only do at a quiescent point.
  ShardPlacement buildPlacement() const;

  SteeringStats stats() const;

private:
  struct Event {
    uint32_t Group;
    uint64_t ShardMask;
  };

  /// One SPSC lane (Head: owning worker, Tail: drainer).
  struct alignas(64) Lane {
    std::vector<Event> Slots;
    std::atomic<uint64_t> Head{0};
    std::atomic<uint64_t> Tail{0};
    std::atomic<uint64_t> Dropped{0};
    std::atomic<uint64_t> Observed{0};
  };

  struct GroupInfo {
    uintptr_t Begin = 0;
    uintptr_t End = 0;
    /// EWMA-aged commit count of the group.
    double Traffic = 0;
    /// ... the cross-shard subset.
    double Cross = 0;
    /// ... split by touched shard (affinity signal).
    double PerShard[MaxShardCount] = {};
  };

  SteeringConfig Cfg;
  unsigned ShardCount;
  std::vector<Lane> Lanes;

  // Accumulator state (control-thread only).
  std::unordered_map<uint32_t, GroupInfo> Groups;
  uint64_t DrainedCount = 0;
  uint64_t CrossDrained = 0;
};

} // namespace gstm

#endif // GSTM_SHARD_STEERING_H
