//===- bench/OltpBench.h - Open-loop YCSB-style OLTP benchmark -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OLTP workload tier: YCSB-style read/update/insert/scan mixes with
/// scrambled-Zipfian hot-key skew driven against the transactional
/// skiplist/B-tree (src/tmds) on either STM runtime, recording per-
/// operation commit latency into support/LatencyHistogram.h.
///
/// Load generation is open-loop when an arrival rate is set: operation i
/// is *scheduled* at T0 + i/rate, and its latency is measured from that
/// scheduled arrival to transaction completion, so queueing delay from a
/// stalled server shows up in the tail instead of silently stretching the
/// run (closed-loop coordinated omission). With rate 0 the loop is closed
/// and latency is pure service time.
///
/// All randomness (key draws, op selection) happens outside transaction
/// bodies: bodies must be replay-deterministic under retry (stm-lint R3),
/// and clock reads inside a body would charge timer cost to the STM.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_OLTPBENCH_H
#define GSTM_BENCH_OLTPBENCH_H

#include "support/LatencyHistogram.h"

#include <cstdint>
#include <string>

namespace gstm {

/// Operation mix in percent; must sum to 100.
struct OltpMix {
  unsigned ReadPct = 50;
  unsigned UpdatePct = 50;
  unsigned InsertPct = 0;
  unsigned ScanPct = 0;

  unsigned total() const {
    return ReadPct + UpdatePct + InsertPct + ScanPct;
  }
};

/// YCSB workload presets: a = 50/50 read/update, b = 95/5 read/update,
/// c = read-only, e = 95/5 scan/insert.
bool oltpMixFromName(const std::string &Name, OltpMix &Out);

struct OltpConfig {
  std::string Structure = "skiplist"; ///< skiplist | btree
  std::string Backend = "tl2"; ///< tl2 | orec-eager | libtm | sharded
  unsigned Threads = 4;
  /// Keys preloaded before the timed run (keyspace is [1, Records];
  /// inserts append fresh keys above it).
  uint64_t Records = 1u << 20;
  /// Total operations across all threads.
  uint64_t Operations = 1u << 18;
  OltpMix Mix;
  /// Zipfian skew of the key popularity distribution (YCSB default 0.99);
  /// 0 degenerates to uniform.
  double ZipfTheta = 0.99;
  unsigned ScanLength = 16;
  /// Open-loop arrival rate in ops/sec across all threads; 0 = closed
  /// loop (back-to-back issue, latency = service time).
  double ArrivalRate = 0;
  /// Commit-ring size override (log2 slots) for the abort-attribution
  /// ring; 0 keeps the runtime default.
  unsigned RingBits = 0;
  /// Shard count for the sharded backend; non-zero forces
  /// Backend = "sharded" semantics (0 leaves the flat backends alone).
  unsigned Shards = 0;
  uint64_t Seed = 1;
};

struct OltpResult {
  bool Ok = false;
  std::string Error;
  /// Per-operation commit latency in nanoseconds, merged across threads.
  LatencyHistogram Latency;
  double WallSeconds = 0;
  uint64_t Operations = 0;
  /// STM counters for the timed phase only (prepopulation excluded).
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  uint64_t CommitRingLookups = 0;
  uint64_t CommitRingMisses = 0;
  /// Sharded backend only: commits that ran the cross-shard 2PC path
  /// (zero on the flat backends).
  uint64_t CrossShardCommits = 0;

  double opsPerSecond() const {
    return WallSeconds > 0 ? static_cast<double>(Operations) / WallSeconds
                           : 0;
  }
  double commitRingMissRatio() const {
    return CommitRingLookups
               ? static_cast<double>(CommitRingMisses) /
                     static_cast<double>(CommitRingLookups)
               : 0;
  }
};

/// Runs one configured OLTP benchmark; verification (structure invariants
/// plus exact element accounting) is part of the run — a result with a
/// broken structure comes back Ok = false.
OltpResult runOltp(const OltpConfig &Cfg);

} // namespace gstm

#endif // GSTM_BENCH_OLTPBENCH_H
