//===- stm/StatsShard.h - Sharded per-thread STM telemetry ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread sharded runtime telemetry for the STM runtimes. The seed
/// runtime kept two globally shared atomics (commits/aborts) that every
/// worker hammered on the same cache line; this subsystem replaces them
/// with one cache-line-padded shard per thread that the owning thread
/// increments with relaxed atomics (uncontended, line stays in the local
/// cache) and that readers aggregate on demand after the run quiesces.
///
/// Beyond raw commit/abort totals each shard tracks what the paper's
/// measurement methodology needs (TTS tuples, abort-tail histograms,
/// Figs. 4-7):
///  * an abort breakdown by *cause* (known committer / unknown version /
///    explicit retry — AbortCauseKind) and by *site* (read-time,
///    lock-acquisition, commit-validation, explicit — AbortSite),
///  * a retries-before-commit histogram (log-free fixed buckets; the last
///    bucket absorbs the tail), and
///  * wall-clock attempt latency totals (enabled per-runtime via
///    EngineConfig::TrackAttemptLatency).
///
/// Invariants, relied on by the JSON export and `model_ctl stats`:
///   Aborts  == sum(AbortsByCause) == sum(AbortsBySite)
///   Commits == sum(RetryHistogram) >= ReadOnlyCommits
/// The shard does not store Commits/Aborts separately — snapshots derive
/// them from the breakdowns, so the first and third equalities hold by
/// construction and sum(AbortsByCause) == sum(AbortsBySite) is the
/// independently checkable one.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_STATSSHARD_H
#define GSTM_STM_STATSSHARD_H

#include "stm/Observer.h"
#include "support/Ids.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gstm {

/// Number of shards per runtime, and the one cap on worker threads:
/// ThreadIds map onto shards modulo this (power of two), and an aliased
/// shard would have two writers, whose single-writer increments lose
/// counts. Front ends that take a thread count (check_fuzz, runOltp)
/// refuse more than this; the contention managers size their per-thread
/// state by it.
inline constexpr size_t StatsShardCount = 64;

/// Cardinality of AbortCauseKind (Observer.h).
inline constexpr size_t NumAbortCauses = 3;
/// Cardinality of AbortSite (Observer.h).
inline constexpr size_t NumAbortSites = 4;
/// Buckets of the retries-before-commit histogram: bucket i counts
/// commits that needed exactly i aborted attempts first, except the last
/// bucket which absorbs everything >= RetryHistogramBuckets - 1.
inline constexpr size_t RetryHistogramBuckets = 16;

/// Human-readable names, indexed by the enum value.
const char *abortCauseName(AbortCauseKind Kind);
const char *abortSiteName(AbortSite Site);

/// One thread's counters. Alignment pads each shard to its own cache
/// lines so neighbouring shards never false-share.
///
/// Hot-path cost model: only the owning thread writes a shard, so the
/// increments are plain load+store pairs on atomic cells — no locked RMW
/// instruction at all, unlike the seed's two shared fetch_adds. Aggregate
/// commit/abort totals are not stored separately; they are derived from
/// the breakdowns (commits = sum of the retry histogram, aborts = sum of
/// the per-cause array), which both halves the hot-path work and makes
/// the export invariants hold by construction. The single-writer
/// increments are exact while the thread -> shard mapping is injective
/// (Threads <= StatsShardCount, true for every configuration in this
/// repo); aliased shards beyond that stay data-race-free and
/// self-consistent but may undercount.
struct alignas(256) StatsShard {
  std::atomic<uint64_t> ReadOnlyCommits{0};
  std::atomic<uint64_t> AbortsByCause[NumAbortCauses] = {};
  std::atomic<uint64_t> AbortsBySite[NumAbortSites] = {};
  std::atomic<uint64_t> RetryHistogram[RetryHistogramBuckets] = {};
  /// Attempt latency (every attempt, committed or aborted), accumulated
  /// only when the runtime config enables TrackAttemptLatency.
  std::atomic<uint64_t> Attempts{0};
  std::atomic<uint64_t> AttemptNanos{0};
  /// CommitRing attribution probes: every abort-time version->committer
  /// lookup, and the subset that missed because the ring slot had been
  /// overwritten. At OLTP commit rates a 13-bit ring wraps in
  /// microseconds, so a high miss ratio means abort attribution has
  /// silently degraded to UnknownCommitter — these counters make that
  /// visible in the JSON export instead of silent.
  std::atomic<uint64_t> CommitRingLookups{0};
  std::atomic<uint64_t> CommitRingMisses{0};
  /// Sharded-tier telemetry (shard/Sharded.h); all zero on unsharded
  /// runtimes. CrossShardCommits counts writer commits whose write set
  /// spanned >= 2 shard contexts (the 2PC path — the quantity steering
  /// minimizes); CrossShardAborts counts aborted attempts that had
  /// touched >= 2 shards when they died; PrepareRetries counts bounded
  /// spin iterations on locked stripes during cross-shard prepare.
  std::atomic<uint64_t> CrossShardCommits{0};
  std::atomic<uint64_t> CrossShardAborts{0};
  std::atomic<uint64_t> PrepareRetries{0};

  /// Single-writer increment: plain mov/add/mov instead of a locked RMW.
  static void bump(std::atomic<uint64_t> &C, uint64_t Delta = 1) {
    C.store(C.load(std::memory_order_relaxed) + Delta,
            std::memory_order_relaxed);
  }

  void recordCommit(uint32_t PriorAborts, bool ReadOnly) {
    if (ReadOnly)
      bump(ReadOnlyCommits);
    size_t Bucket = PriorAborts < RetryHistogramBuckets
                        ? PriorAborts
                        : RetryHistogramBuckets - 1;
    bump(RetryHistogram[Bucket]);
  }

  void recordAbort(AbortCauseKind Kind, AbortSite Site) {
    bump(AbortsByCause[static_cast<size_t>(Kind)]);
    bump(AbortsBySite[static_cast<size_t>(Site)]);
  }

  void recordAttempt(uint64_t Nanos) {
    bump(Attempts);
    bump(AttemptNanos, Nanos);
  }

  void recordCommitRingLookup(bool Hit) {
    bump(CommitRingLookups);
    if (!Hit)
      bump(CommitRingMisses);
  }

  void recordCrossShardCommit() { bump(CrossShardCommits); }
  void recordCrossShardAbort() { bump(CrossShardAborts); }
  void recordPrepareRetry() { bump(PrepareRetries); }
};

/// Plain (non-atomic) copy of one shard or of the whole-runtime
/// aggregate; what the harness stores, merges across runs, and exports as
/// JSON.
struct StatsSnapshot {
  uint64_t Commits = 0;
  uint64_t ReadOnlyCommits = 0;
  uint64_t Aborts = 0;
  uint64_t AbortsByCause[NumAbortCauses] = {};
  uint64_t AbortsBySite[NumAbortSites] = {};
  uint64_t RetryHistogram[RetryHistogramBuckets] = {};
  uint64_t Attempts = 0;
  uint64_t AttemptNanos = 0;
  uint64_t CommitRingLookups = 0;
  uint64_t CommitRingMisses = 0;
  uint64_t CrossShardCommits = 0;
  uint64_t CrossShardAborts = 0;
  uint64_t PrepareRetries = 0;

  void merge(const StatsSnapshot &Other);

  uint64_t causeTotal() const;
  uint64_t siteTotal() const;
  uint64_t retryTotal() const;

  /// Fraction of abort-time ring lookups that missed (0 when no aborts
  /// probed the ring). Near 1.0 means the ring is undersized for the
  /// commit rate and the cause breakdown is mostly UnknownCommitter.
  double commitRingMissRatio() const {
    return CommitRingLookups ? static_cast<double>(CommitRingMisses) /
                                   static_cast<double>(CommitRingLookups)
                             : 0.0;
  }

  /// Mean attempt latency in nanoseconds (0 when latency tracking was
  /// off or nothing ran).
  double meanAttemptNanos() const {
    return Attempts ? static_cast<double>(AttemptNanos) /
                          static_cast<double>(Attempts)
                    : 0.0;
  }

  /// True when the per-cause / per-site / per-bucket breakdowns sum
  /// exactly to the aggregate counters.
  bool consistent() const {
    return causeTotal() == Aborts && siteTotal() == Aborts &&
           retryTotal() == Commits && CrossShardCommits <= Commits &&
           CrossShardAborts <= Aborts;
  }
};

/// The per-runtime shard array. Writers index their own shard through
/// shard(ThreadId); readers aggregate on demand. Aggregation while
/// workers are still running is safe (relaxed loads of monotone
/// counters) but yields an in-flight snapshot, not a quiesced total.
class ShardedStats {
public:
  StatsShard &shard(ThreadId Thread) {
    return Shards[static_cast<size_t>(Thread) & (StatsShardCount - 1)];
  }

  /// Plain copy of shard \p Index (thread T lands in shard
  /// T % StatsShardCount).
  StatsSnapshot snapshotShard(size_t Index) const;

  /// Sum of all shards.
  StatsSnapshot aggregate() const;

  /// Convenience totals, replacing the seed's Tl2Stats::Commits/Aborts
  /// reads.
  uint64_t commits() const;
  uint64_t aborts() const;

  /// Zeroes every shard. Only call while no transactions are running.
  void reset();

  static constexpr size_t numShards() { return StatsShardCount; }

private:
  StatsShard Shards[StatsShardCount];
};

/// Backwards-compatible name: the runtime stats type the STMs expose.
using Tl2Stats = ShardedStats;

} // namespace gstm

#endif // GSTM_STM_STATSSHARD_H
