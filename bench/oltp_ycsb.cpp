//===- bench/oltp_ycsb.cpp - OLTP workload tier CLI -----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Drives the YCSB-style OLTP tier (bench/OltpBench.h) from the command
// line:
//
//   oltp_ycsb --mix=a --records=1000000 --ops=500000 --threads=4
//   oltp_ycsb --structure=btree --backend=libtm --mix=e
//   oltp_ycsb --rate=200000            # open-loop at 200k ops/s
//   oltp_ycsb --ring-bits=4            # shrink the abort-attribution ring
//
// Prints throughput plus real per-operation latency percentiles
// (p50/p99/p999 from a log-bucketed histogram, not repeat maxima), the
// abort rate, and the commit-ring miss ratio; --json emits the same as a
// JSON object on stdout.
//
//===----------------------------------------------------------------------===//

#include "bench/OltpBench.h"
#include "shard/ShardConfig.h"
#include "stm/CommitRing.h"
#include "stm/StatsShard.h"
#include "support/Json.h"
#include "support/Options.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

using namespace gstm;

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "oltp_ycsb",
      "YCSB-style OLTP benchmark over the transactional skiplist/B-tree",
      {
          {"structure", "S", "skiplist or btree (default skiplist)"},
          {"backend", "B", "tl2, libtm or sharded (default tl2)"},
          {"shards", "N", "shard count; implies --backend=sharded "
                          "(default 0 = flat backend)"},
          {"threads", "T", "worker threads (default 4)"},
          {"records", "N", "preloaded keys (default 1048576)"},
          {"ops", "N", "total operations (default 262144)"},
          {"mix", "M", "YCSB preset: a (50/50 read/update), b (95/5), "
                       "c (read-only), e (95/5 scan/insert); default a"},
          {"read", "P", "custom mix: read percent (overrides --mix)"},
          {"update", "P", "custom mix: update percent"},
          {"insert", "P", "custom mix: insert percent"},
          {"scan", "P", "custom mix: scan percent"},
          {"theta", "F", "Zipfian skew (default 0.99; 0 = uniform)"},
          {"scan-len", "N", "entries per scan (default 16)"},
          {"rate", "R", "open-loop arrival rate in ops/s across all "
                        "threads (default 0 = closed loop)"},
          {"ring-bits", "N",
           "commit-ring size override (log2 slots in [1, " +
               std::to_string(MaxCommitRingBits) +
               "]; default: runtime config)"},
          {"seed", "S", "rng seed (default 1)"},
          {"json", "", "emit the result as JSON on stdout"},
      });
  Options Opts = Cli.parseOrExit(Argc, Argv);

  OltpConfig Cfg;
  Cfg.Structure = Opts.getString("structure", Cfg.Structure);
  Cfg.Backend = Opts.getString("backend", Cfg.Backend);
  Cfg.Threads = Opts.getInt("threads", Cfg.Threads, 1, StatsShardCount);
  // Node pools index with 32 bits; runOltp also refuses a preload plus
  // inserts that outgrow them.
  Cfg.Records = Opts.getInt("records", 1 << 20, 1, UINT32_MAX);
  Cfg.Operations = Opts.getInt("ops", 1 << 18, 0, INT64_MAX);
  Cfg.Mix = Opts.getEnum("mix", "a", oltpMixFromName, "a, b, c or e");
  if (Opts.has("read") || Opts.has("update") || Opts.has("insert") ||
      Opts.has("scan")) {
    Cfg.Mix.ReadPct = Opts.getInt("read", 0, 0, 100);
    Cfg.Mix.UpdatePct = Opts.getInt("update", 0, 0, 100);
    Cfg.Mix.InsertPct = Opts.getInt("insert", 0, 0, 100);
    Cfg.Mix.ScanPct = Opts.getInt("scan", 0, 0, 100);
  }
  // theta = 1 makes the Zipfian exponent 1/(1 - theta) infinite.
  Cfg.ZipfTheta =
      Opts.getDouble("theta", Cfg.ZipfTheta, 0, std::nextafter(1.0, 0.0));
  Cfg.ScanLength = Opts.getInt("scan-len", Cfg.ScanLength, 1, UINT32_MAX);
  Cfg.ArrivalRate = Opts.getDouble("rate", 0, 0, DBL_MAX);
  Cfg.RingBits = Opts.getInt("ring-bits", Cfg.RingBits, 1, MaxCommitRingBits);
  Cfg.Shards = Opts.getInt("shards", Cfg.Shards, 0, MaxShardCount);
  if (Cfg.Shards && Cfg.Backend == "tl2")
    Cfg.Backend = "sharded";
  Cfg.Seed = Opts.getInt("seed", 1);

  OltpResult R = runOltp(Cfg);
  if (!R.Ok) {
    std::fprintf(stderr, "oltp_ycsb: %s\n", R.Error.c_str());
    return 2;
  }

  if (Opts.getBool("json", false)) {
    JsonWriter W;
    W.beginObject();
    W.key("structure").value(Cfg.Structure);
    W.key("backend").value(Cfg.Backend);
    W.key("threads").value(uint64_t{Cfg.Threads});
    W.key("records").value(Cfg.Records);
    W.key("operations").value(R.Operations);
    W.key("wall_seconds").value(R.WallSeconds);
    W.key("ops_per_second").value(R.opsPerSecond());
    W.key("latency_ns").beginObject();
    W.key("p50").value(R.Latency.p50());
    W.key("p99").value(R.Latency.p99());
    W.key("p999").value(R.Latency.p999());
    W.key("min").value(R.Latency.min());
    W.key("max").value(R.Latency.max());
    W.key("samples").value(R.Latency.count());
    W.endObject();
    W.key("commits").value(R.Commits);
    W.key("aborts").value(R.Aborts);
    W.key("commit_ring_lookups").value(R.CommitRingLookups);
    W.key("commit_ring_misses").value(R.CommitRingMisses);
    W.key("commit_ring_miss_ratio").value(R.commitRingMissRatio());
    if (Cfg.Shards) {
      W.key("shards").value(uint64_t{Cfg.Shards});
      W.key("cross_shard_commits").value(R.CrossShardCommits);
    }
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  }

  std::printf("oltp_ycsb: %s on %s, %u thread(s), %llu records, mix "
              "r%u/u%u/i%u/s%u, theta %.2f%s\n",
              Cfg.Structure.c_str(), Cfg.Backend.c_str(), Cfg.Threads,
              static_cast<unsigned long long>(Cfg.Records),
              Cfg.Mix.ReadPct, Cfg.Mix.UpdatePct, Cfg.Mix.InsertPct,
              Cfg.Mix.ScanPct, Cfg.ZipfTheta,
              Cfg.ArrivalRate > 0 ? " (open loop)" : "");
  std::printf("  %llu ops in %.3f s = %.0f ops/s\n",
              static_cast<unsigned long long>(R.Operations),
              R.WallSeconds, R.opsPerSecond());
  std::printf("  latency ns: p50 %llu  p99 %llu  p999 %llu  max %llu "
              "(%llu samples)\n",
              static_cast<unsigned long long>(R.Latency.p50()),
              static_cast<unsigned long long>(R.Latency.p99()),
              static_cast<unsigned long long>(R.Latency.p999()),
              static_cast<unsigned long long>(R.Latency.max()),
              static_cast<unsigned long long>(R.Latency.count()));
  std::printf("  commits %llu, aborts %llu (%.1f%% abort rate), "
              "ring miss ratio %.4f\n",
              static_cast<unsigned long long>(R.Commits),
              static_cast<unsigned long long>(R.Aborts),
              R.Commits + R.Aborts
                  ? 100.0 * static_cast<double>(R.Aborts) /
                        static_cast<double>(R.Commits + R.Aborts)
                  : 0.0,
              R.commitRingMissRatio());
  if (Cfg.Shards)
    std::printf("  %u shard(s), %llu cross-shard commits (%.1f%% of "
                "commits)\n",
                Cfg.Shards,
                static_cast<unsigned long long>(R.CrossShardCommits),
                R.Commits ? 100.0 * static_cast<double>(R.CrossShardCommits) /
                                static_cast<double>(R.Commits)
                          : 0.0);
  return 0;
}
