//===- tools/bench_runner.cpp - Perf trajectory snapshot runner -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Executes the repo's benchmark battery and persists one schema-versioned
// perf snapshot:
//
//   * micro  — spawns bench/micro_stm_ops with --json-dir and ingests its
//              google-benchmark JSON (one row per op kind / thread count),
//   * engines — the same micro binary filtered to orec-eager, the
//              chassis's in-place policy: read-only, single-location RMW
//              and disjoint contended RMW, next to the TL2 micro rows,
//   * stamp  — kmeans, ssca2, vacation through core/Runner at a fixed
//              thread count (wall seconds per run; full mode runs at
//              least the tail sample floor so the published p99 is a
//              ranked per-run time, not a repeat max),
//   * synquake — the LibTm game bench (seconds per frame, percentiles
//              from the pooled per-frame histogram),
//   * oltp   — YCSB-style mixes over the transactional skiplist/B-tree
//              (bench/OltpBench.h) on TL2 and on orec-eager, percentiles
//              from per-operation commit-latency histograms.
//
// Every metric is aggregated as median / min / max, and written to
// BENCH_<n>.json in --out-dir, where <n> continues the highest snapshot
// already present — the committed BENCH_*.json sequence at the repo root
// is the project's perf trajectory, gated by tools/bench_regress. Tail
// fields (p99/p999) are only emitted when at least ~100 samples back
// them: a "p99" computed from a handful of repeats is just the max
// wearing a costume, so low-sample suites write null instead and
// bench_regress falls back to its fixed tolerance.
//
//   bench_runner --smoke                  # CI preset: small repeats/inputs
//   bench_runner --out-dir=. --repeats=5  # full snapshot at the repo root
//
//===----------------------------------------------------------------------===//

#include "bench/OltpBench.h"
#include "bench/ShardBench.h"
#include "core/Runner.h"
#include "stamp/Registry.h"
#include "stamp/SizeClass.h"
#include "stm/StatsShard.h"
#include "support/Json.h"
#include "support/LatencyHistogram.h"
#include "support/Options.h"
#include "synquake/Game.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gstm;
namespace fs = std::filesystem;

namespace {

/// Below this many samples a nearest-rank p99 is just the max; the
/// snapshot writes null instead of a fake tail.
constexpr size_t TailSampleFloor = 100;

/// Aggregate of one metric's samples. HasTail gates the p99/p999 fields:
/// they are only meaningful when enough samples back them.
struct Aggregate {
  double Median = 0, P99 = 0, P999 = 0, Min = 0, Max = 0;
  size_t Repeats = 0;
  size_t Samples = 0;
  bool HasTail = false;
};

Aggregate aggregate(std::vector<double> Samples) {
  Aggregate A;
  if (Samples.empty())
    return A;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  A.Repeats = N;
  A.Samples = N;
  A.Min = Samples.front();
  A.Max = Samples.back();
  A.Median = N % 2 ? Samples[N / 2]
                   : (Samples[N / 2 - 1] + Samples[N / 2]) / 2.0;
  A.HasTail = N >= TailSampleFloor;
  if (A.HasTail) {
    auto NearestRank = [&](double Q) {
      size_t Rank = static_cast<size_t>(
          std::ceil(Q * static_cast<double>(N)));
      Rank = std::max<size_t>(Rank, 1);
      return Samples[std::min(Rank - 1, N - 1)];
    };
    A.P99 = NearestRank(0.99);
    A.P999 = NearestRank(0.999);
  }
  return A;
}

/// Aggregate from a per-operation latency histogram (values in ns);
/// \p Scale converts ns to the entry's unit (1e-9 for seconds). The
/// histogram's own bucketed quantiles are the percentiles — no repeat-
/// maximum stands in for the tail.
Aggregate aggregateHistogram(const LatencyHistogram &H, double Scale,
                             size_t Repeats) {
  Aggregate A;
  A.Repeats = Repeats;
  A.Samples = static_cast<size_t>(H.count());
  if (!A.Samples)
    return A;
  A.Min = static_cast<double>(H.min()) * Scale;
  A.Max = static_cast<double>(H.max()) * Scale;
  A.Median = static_cast<double>(H.p50()) * Scale;
  A.HasTail = A.Samples >= TailSampleFloor;
  if (A.HasTail) {
    A.P99 = static_cast<double>(H.p99()) * Scale;
    A.P999 = static_cast<double>(H.p999()) * Scale;
  }
  return A;
}

/// One snapshot row.
struct Entry {
  std::string Suite;
  std::string Name;
  unsigned Threads = 1;
  std::string Unit;
  Aggregate Agg;
};

/// Highest <n> among existing Dir/BENCH_<n>.json, or 0.
unsigned highestSnapshot(const fs::path &Dir) {
  unsigned Best = 0;
  std::error_code Ec;
  for (const auto &DirEntry : fs::directory_iterator(Dir, Ec)) {
    const std::string File = DirEntry.path().filename().string();
    unsigned N = 0;
    if (std::sscanf(File.c_str(), "BENCH_%u.json", &N) == 1)
      Best = std::max(Best, N);
  }
  return Best;
}

/// Thread count embedded in a google-benchmark name ("/threads:8"), 1 if
/// absent.
unsigned threadsFromBenchName(const std::string &Name) {
  size_t Pos = Name.find("/threads:");
  if (Pos == std::string::npos)
    return 1;
  return static_cast<unsigned>(
      std::strtoul(Name.c_str() + Pos + 9, nullptr, 10));
}

/// "BM_Tl2WriteTxn/threads:8/real_time" -> "tl2_write_txn_t8"-style flat
/// key: stable across benchmark-library formatting details.
std::string flatBenchName(const std::string &Name) {
  std::string Base = Name.substr(0, Name.find('/'));
  if (Base.rfind("BM_", 0) == 0)
    Base = Base.substr(3);
  std::string Flat;
  for (size_t I = 0; I < Base.size(); ++I) {
    char C = Base[I];
    if (C >= 'A' && C <= 'Z') {
      if (I && !Flat.empty() && Flat.back() != '_')
        Flat.push_back('_');
      Flat.push_back(static_cast<char>(C - 'A' + 'a'));
    } else {
      Flat.push_back(C);
    }
  }
  // Sub-benchmark arg ("/64") distinguishes sized variants.
  size_t Slash = Name.find('/');
  while (Slash != std::string::npos) {
    size_t End = Name.find('/', Slash + 1);
    std::string Part = Name.substr(
        Slash + 1, End == std::string::npos ? std::string::npos
                                            : End - Slash - 1);
    if (!Part.empty() && Part.find(':') == std::string::npos &&
        Part != "real_time")
      Flat += "_" + Part;
    Slash = End;
  }
  return Flat;
}

/// Runs micro_stm_ops with --json-dir and \p Filter, folding its
/// repetition rows into Entries under \p SuiteLabel. Returns false (with
/// a message) when the binary is missing or its output cannot be parsed.
bool runMicroSuite(const std::string &MicroBin, const fs::path &TmpDir,
                   const std::string &Filter, const char *SuiteLabel,
                   unsigned Repetitions, double MinTime,
                   std::vector<Entry> &Entries, std::string &Error) {
  std::error_code Ec;
  fs::create_directories(TmpDir, Ec);
  std::ostringstream Cmd;
  Cmd << MicroBin << " '--benchmark_filter=" << Filter << "'"
      << " --benchmark_repetitions=" << Repetitions
      << " --benchmark_min_time=" << MinTime << " --json-dir="
      << TmpDir.string() << " > " << (TmpDir / "micro_stm_ops.log").string()
      << " 2>&1";
  if (std::system(Cmd.str().c_str()) != 0) {
    Error = "micro_stm_ops failed (see " +
            (TmpDir / "micro_stm_ops.log").string() + ")";
    return false;
  }
  std::ifstream In(TmpDir / "micro_stm_ops.json");
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(Buf.str());
  if (!Doc || !Doc->isObject()) {
    Error = "cannot parse micro_stm_ops.json";
    return false;
  }
  const JsonValue *Rows = Doc->find("benchmarks");
  if (!Rows || !Rows->isArray()) {
    Error = "micro_stm_ops.json has no benchmarks array";
    return false;
  }
  // Group repetition rows (run_type "iteration") by benchmark name.
  std::vector<std::pair<std::string, std::vector<double>>> Groups;
  for (const JsonValue &Row : Rows->Items) {
    const JsonValue *RunType = Row.find("run_type");
    if (RunType && RunType->Str == "aggregate")
      continue;
    const JsonValue *Name = Row.find("name");
    const JsonValue *RealTime = Row.find("real_time");
    if (!Name || !RealTime)
      continue;
    auto It = std::find_if(Groups.begin(), Groups.end(), [&](auto &G) {
      return G.first == Name->Str;
    });
    if (It == Groups.end()) {
      Groups.push_back({Name->Str, {}});
      It = Groups.end() - 1;
    }
    It->second.push_back(RealTime->asDouble());
  }
  for (auto &[Name, Samples] : Groups) {
    Entry E;
    E.Suite = SuiteLabel;
    E.Name = flatBenchName(Name);
    E.Threads = threadsFromBenchName(Name);
    if (E.Threads > 1)
      E.Name += "_t" + std::to_string(E.Threads);
    E.Unit = "ns/op";
    E.Agg = aggregate(std::move(Samples));
    Entries.push_back(std::move(E));
  }
  return true;
}

void runStampSuite(unsigned Threads, unsigned Repeats, uint64_t Seed,
                   bool Smoke, std::vector<Entry> &Entries) {
  // The STAMP Small runs are sub-millisecond and oversubscribed
  // (8 threads on the single-core CI box), so per-run wall time is
  // scheduler-dominated: medians drift by tens of percent between
  // container days and a handful of repeats says nothing about the
  // spread. Full mode therefore runs at least the tail sample floor
  // (a run costs well under a millisecond) so the snapshot publishes
  // a real p99 and the regress gate widens its tolerance by the
  // observed noise instead of false-alarming at the fixed base.
  const unsigned Runs =
      Smoke ? Repeats
            : std::max<unsigned>(Repeats,
                                 static_cast<unsigned>(TailSampleFloor));
  for (const char *Name : {"kmeans", "ssca2", "vacation"}) {
    std::vector<double> Wall;
    for (unsigned R = 0; R < Runs; ++R) {
      std::unique_ptr<TlWorkload> W =
          createStampWorkload(Name, SizeClass::Small);
      if (!W) {
        std::fprintf(stderr, "bench_runner: unknown STAMP workload %s\n",
                     Name);
        std::exit(2);
      }
      RunnerConfig RC;
      RC.Threads = Threads;
      RC.CollectTrace = false;
      // Bare STM timing: no forced yields, no latency sampling.
      RC.Stm = Tl2Config();
      RC.YieldShift = 0;
      RunResult Res = runWorkloadOnce(*W, RC, Seed, nullptr);
      if (!Res.Verified) {
        std::fprintf(stderr,
                     "bench_runner: %s failed verification — refusing to "
                     "record a perf number for a broken run\n",
                     Name);
        std::exit(2);
      }
      Wall.push_back(Res.WallSeconds);
    }
    Entry E;
    E.Suite = "stamp";
    E.Name = Name;
    E.Threads = Threads;
    E.Unit = "s";
    E.Agg = aggregate(std::move(Wall));
    Entries.push_back(std::move(E));
  }
}

void runSynQuakeSuite(unsigned Threads, unsigned Repeats, uint64_t Seed,
                      bool Smoke, std::vector<Entry> &Entries) {
  SynQuakeParams P;
  P.NumPlayers = Smoke ? 96 : 256;
  P.Frames = Smoke ? 8 : 24;
  P.PhysicsIterations = Smoke ? 200 : 1000;
  // Per-frame times pooled across repeats into one histogram, so the
  // published percentiles rank individual frames (24 x 5 = 120 samples
  // in full mode clears the tail floor) instead of repeat maxima.
  LatencyHistogram FrameNs;
  for (unsigned R = 0; R < Repeats; ++R) {
    LibTm Tm;
    SynQuakeGame Game(P);
    Game.setup(Tm, Threads, Seed);
    std::vector<double> Frames = Game.run(Tm, Threads);
    if (!Game.verify()) {
      std::fprintf(stderr, "bench_runner: synquake failed verification — "
                           "refusing to record a perf number\n");
      std::exit(2);
    }
    for (double Sec : Frames)
      FrameNs.record(static_cast<uint64_t>(Sec * 1e9));
  }
  Entry E;
  E.Suite = "synquake";
  E.Name = "quadrants4";
  E.Threads = Threads;
  E.Unit = "s/frame";
  E.Agg = aggregateHistogram(FrameNs, 1e-9, Repeats);
  Entries.push_back(std::move(E));
}

/// YCSB-style OLTP tier: skiplist and B-tree, one update-heavy and one
/// scan/insert mix each, on TL2 and on orec-eager; the published metric
/// is per-operation commit latency in ns with histogram-backed
/// percentiles. TL2 rows keep their names; orec-eager rows end in
/// `_orec_eager`.
void runOltpSuite(unsigned Threads, uint64_t Seed, bool Smoke,
                  std::vector<Entry> &Entries) {
  struct OltpCase {
    const char *Structure;
    const char *MixName;
    const char *Backend;
  };
  for (const OltpCase &C : {OltpCase{"skiplist", "a", "tl2"},
                            OltpCase{"skiplist", "e", "tl2"},
                            OltpCase{"btree", "a", "tl2"},
                            OltpCase{"btree", "e", "tl2"},
                            OltpCase{"skiplist", "a", "orec-eager"},
                            OltpCase{"skiplist", "e", "orec-eager"},
                            OltpCase{"btree", "a", "orec-eager"},
                            OltpCase{"btree", "e", "orec-eager"}}) {
    OltpConfig Cfg;
    Cfg.Structure = C.Structure;
    Cfg.Backend = C.Backend;
    Cfg.Threads = Threads;
    Cfg.Records = Smoke ? (uint64_t{1} << 12) : (uint64_t{1} << 20);
    Cfg.Operations = Smoke ? (uint64_t{1} << 14) : (uint64_t{1} << 17);
    Cfg.Seed = Seed;
    if (!oltpMixFromName(C.MixName, Cfg.Mix)) {
      std::fprintf(stderr, "bench_runner: bad oltp mix %s\n", C.MixName);
      std::exit(2);
    }
    OltpResult R = runOltp(Cfg);
    if (!R.Ok) {
      std::fprintf(stderr,
                   "bench_runner: oltp %s/%s on %s failed verification (%s) "
                   "— refusing to record a perf number\n",
                   C.Structure, C.MixName, C.Backend, R.Error.c_str());
      std::exit(2);
    }
    Entry E;
    E.Suite = "oltp";
    E.Name = std::string(C.Structure) + "_ycsb_" + C.MixName +
             (Cfg.Backend == "tl2" ? "" : "_orec_eager");
    E.Threads = Threads;
    E.Unit = "ns/op";
    E.Agg = aggregateHistogram(R.Latency, 1.0, /*Repeats=*/1);
    Entries.push_back(std::move(E));
  }
}

/// Sharded tier: a group-local mix and a deliberately cross-shard-heavy
/// mix at shard counts 1/4/8, unsteered and (above one shard) steered.
/// Each case publishes ns/op plus the cross-shard commit ratio — the
/// metric the steering pass exists to reduce, so a steered ratio
/// regression fails bench_regress just like a latency one.
void runShardSuite(unsigned Threads, unsigned Repeats, uint64_t Seed,
                   bool Smoke, std::vector<Entry> &Entries) {
  struct ShardCase {
    const char *MixName;
    unsigned CrossPerMille;
  };
  for (unsigned Shards : {1u, 4u, 8u}) {
    for (const ShardCase &C :
         {ShardCase{"local", 0}, ShardCase{"xshard", 500}}) {
      // Steering a single shard is a no-op; skip the redundant axis.
      for (unsigned Steer = 0; Steer < (Shards > 1 ? 2u : 1u); ++Steer) {
        std::vector<double> NsPerOp, Ratio;
        for (unsigned R = 0; R < Repeats; ++R) {
          ShardBenchConfig Cfg;
          Cfg.Threads = Threads;
          Cfg.ShardCount = Shards;
          Cfg.Groups = Smoke ? 16 : 32;
          Cfg.CellsPerGroup = Smoke ? 16 : 32;
          Cfg.OpsPerThread = Smoke ? 2000 : 40000;
          Cfg.WarmupOpsPerThread = Smoke ? 1000 : 8000;
          Cfg.CrossPerMille = C.CrossPerMille;
          Cfg.Steering = Steer != 0;
          Cfg.Seed = Seed + R;
          ShardBenchResult Res = runShardBench(Cfg);
          if (!Res.Ok) {
            std::fprintf(stderr,
                         "bench_runner: shard %s s%u failed verification "
                         "(%s) — refusing to record a perf number\n",
                         C.MixName, Shards, Res.Error.c_str());
            std::exit(2);
          }
          NsPerOp.push_back(Res.nsPerOp());
          Ratio.push_back(Res.crossShardRatio());
        }
        const std::string Name = std::string(C.MixName) + "_s" +
                                 std::to_string(Shards) +
                                 (Steer ? "_steer" : "");
        Entry E;
        E.Suite = "shard";
        E.Name = Name;
        E.Threads = Threads;
        E.Unit = "ns/op";
        E.Agg = aggregate(std::move(NsPerOp));
        Entries.push_back(std::move(E));
        Entry X;
        X.Suite = "shard";
        X.Name = Name + "_xratio";
        X.Threads = Threads;
        X.Unit = "ratio";
        X.Agg = aggregate(std::move(Ratio));
        Entries.push_back(std::move(X));
      }
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "bench_runner",
      "runs the benchmark battery and writes one BENCH_<n>.json snapshot",
      {
          {"smoke", "", "CI preset: small repeats and inputs"},
          {"out-dir", "DIR",
           "where snapshots live and the new one is written (default .)"},
          {"micro-bin", "PATH",
           "micro_stm_ops binary (default <exe>/../../bench/micro_stm_ops)"},
          {"suite", "S",
           "all, micro, engines, stamp, synquake, oltp or shard "
           "(default all)"},
          {"threads", "T", "fixed thread count for stamp/synquake/micro "
                           "contended ops, in [1, 64] (default 8)"},
          {"repeats", "N",
           "repeats per metric, at least 1 (default 5; 2 with --smoke)"},
          {"seed", "S", "workload input seed (default 1)"},
      });
  Options Opts = Cli.parseOrExit(Argc, Argv);

  const bool Smoke = Opts.getBool("smoke", false);
  const std::string Suite = Opts.getString("suite", "all");
  // More threads than stats shards would alias single-writer shards, and
  // zero repeats would publish a snapshot of zero medians.
  const unsigned Threads = Opts.getInt("threads", 8, 1, StatsShardCount);
  const unsigned Repeats = Opts.getInt("repeats", Smoke ? 2 : 5, 1, UINT32_MAX);
  const uint64_t Seed = Opts.getInt("seed", 1);
  const fs::path OutDir = Opts.getString("out-dir", ".");

  std::string MicroBin = Opts.getString("micro-bin", "");
  if (MicroBin.empty()) {
    fs::path Exe = fs::path(Argv[0]);
    MicroBin = (Exe.parent_path().parent_path() / "bench" /
                "micro_stm_ops")
                   .string();
  }

  std::vector<Entry> Entries;
  const bool All = Suite == "all";
  if (All || Suite == "micro") {
    std::string Error;
    if (!runMicroSuite(MicroBin, OutDir / ".bench_tmp",
                       "(Tl2ReadOnlyTxn|Tl2WriteTxn|Tl2TxnBySize/64|"
                       "Tl2ListWalkTxn|TmBTree(Find|Update)Txn|Tl2StmConstruct|"
                       "LibTmObjectTxn|Tl2Disjoint.*/threads:(1|8)$|"
                       "Tl2RwAccessObserver)",
                       "micro", /*Repetitions=*/Repeats,
                       /*MinTime=*/Smoke ? 0.02 : 0.1, Entries, Error)) {
      std::fprintf(stderr, "bench_runner: %s\n", Error.c_str());
      return 2;
    }
  }
  if (All || Suite == "engines") {
    std::string Error;
    if (!runMicroSuite(MicroBin, OutDir / ".bench_tmp",
                       "BM_OrecEager(ReadOnlyTxn|WriteTxn|DisjointWriteTxn)",
                       "engines", /*Repetitions=*/Repeats,
                       /*MinTime=*/Smoke ? 0.02 : 0.1, Entries, Error)) {
      std::fprintf(stderr, "bench_runner: %s\n", Error.c_str());
      return 2;
    }
  }
  if (All || Suite == "stamp")
    runStampSuite(Threads, Repeats, Seed, Smoke, Entries);
  if (All || Suite == "synquake")
    runSynQuakeSuite(Threads, Repeats, Seed, Smoke, Entries);
  if (All || Suite == "oltp")
    runOltpSuite(Threads, Seed, Smoke, Entries);
  if (All || Suite == "shard")
    runShardSuite(Threads, Repeats, Seed, Smoke, Entries);

  if (Entries.empty()) {
    std::fprintf(stderr, "bench_runner: unknown --suite=%s\n",
                 Suite.c_str());
    return 2;
  }

  const unsigned Snapshot = highestSnapshot(OutDir) + 1;
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("gstm.bench.v1");
  W.key("snapshot").value(uint64_t{Snapshot});
  W.key("mode").value(Smoke ? "smoke" : "full");
  W.key("threads").value(uint64_t{Threads});
  W.key("repeats").value(uint64_t{Repeats});
  W.key("entries").beginArray();
  for (const Entry &E : Entries) {
    W.beginObject();
    W.key("suite").value(E.Suite);
    W.key("name").value(E.Name);
    W.key("threads").value(uint64_t{E.Threads});
    W.key("unit").value(E.Unit);
    W.key("repeats").value(static_cast<uint64_t>(E.Agg.Repeats));
    W.key("samples").value(static_cast<uint64_t>(E.Agg.Samples));
    W.key("median").value(E.Agg.Median);
    // Tail fields are null below the sample floor: a p99 over a handful
    // of repeats would just republish the max.
    if (E.Agg.HasTail) {
      W.key("p99").value(E.Agg.P99);
      W.key("p999").value(E.Agg.P999);
    } else {
      W.key("p99").null();
      W.key("p999").null();
    }
    W.key("min").value(E.Agg.Min);
    W.key("max").value(E.Agg.Max);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  const fs::path OutFile =
      OutDir / ("BENCH_" + std::to_string(Snapshot) + ".json");
  std::ofstream Out(OutFile);
  if (!Out) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n",
                 OutFile.string().c_str());
    return 2;
  }
  Out << W.str() << "\n";
  Out.close();

  std::printf("%-10s %-38s %8s %12s %12s\n", "suite", "name", "threads",
              "median", "p99");
  for (const Entry &E : Entries) {
    if (E.Agg.HasTail)
      std::printf("%-10s %-38s %8u %12.4g %12.4g  %s\n", E.Suite.c_str(),
                  E.Name.c_str(), E.Threads, E.Agg.Median, E.Agg.P99,
                  E.Unit.c_str());
    else
      std::printf("%-10s %-38s %8u %12.4g %12s  %s\n", E.Suite.c_str(),
                  E.Name.c_str(), E.Threads, E.Agg.Median, "-",
                  E.Unit.c_str());
  }
  std::printf("bench_runner: wrote %s (%zu entries)\n",
              OutFile.string().c_str(), Entries.size());
  return 0;
}
