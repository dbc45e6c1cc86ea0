//===- tools/model_ctl.cpp - model lifecycle control ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Command-line front end of the model lifecycle subsystem (src/model):
//
//   model_ctl save --workload=NAME --out=FILE [--store=DIR]
//       profile the workload and persist the trained TSA (binary file
//       and/or key-stamped store entry)
//   model_ctl info FILE [--json]
//       census + analyzer verdict; --json dumps the interchange document
//   model_ctl diff A B
//       structural comparison; exits 0 identical / 1 different / 2 error
//       (GNU diff convention)
//   model_ctl load FILE [--run --workload=NAME]
//       validate a container; with --run, warm-start guided measurement
//       from it — zero profiling transactions in this process
//   model_ctl list --store=DIR
//       print the store manifest
//
// Every failure path reports the typed ModelIoStatus, so a truncated or
// tampered file names its defect instead of "cannot load".
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "model/Serialize.h"
#include "model/Store.h"
#include "shard/ShardConfig.h"
#include "stamp/Registry.h"
#include "stm/StatsShard.h"
#include "support/Options.h"

#include <cstdio>
#include <string>

using namespace gstm;

namespace {

void reportLoadFailure(const std::string &Path, const ModelLoadResult &R) {
  std::fprintf(stderr, "error: %s: %s (%s)\n", Path.c_str(),
               modelIoStatusName(R.Status), R.Detail.c_str());
}

/// Key under which `save --store` publishes: the workload/thread
/// coordinates plus a hash of the knobs that shape the trained state
/// space. The shard layout is part of that space — conflict structure
/// under 4 shards is not the structure under 1 — so the canonical shard
/// rendering is folded in and models trained under different shard
/// configurations land under distinct keys.
ModelKey keyFor(const std::string &Workload, unsigned Threads,
                SizeClass Size, const ShardConfig &Shards) {
  ModelKey Key;
  Key.Workload = Workload;
  Key.Threads = Threads;
  Key.ConfigHash = hashConfigString(std::string("grouping=sequence;") +
                                    "size=" + sizeClassName(Size) +
                                    ";preempt=5;" +
                                    shardConfigCanonical(Shards));
  return Key;
}

/// Shard coordinates from the command line; shards=1 (the unsharded
/// tier) is the default and keeps its own stable key.
ShardConfig shardConfigFor(const Options &Opts) {
  ShardConfig SC;
  SC.ShardCount = static_cast<unsigned>(Opts.getInt("shards", 1));
  SC.Steering = Opts.getBool("steer", false);
  return SC;
}

/// Refuses counts no run can use: zero threads or more than
/// StatsShardCount (single-writer stats shards would alias), zero runs
/// (an empty model saved and published, an empty guided measurement
/// reported), and a shard count ShardedStm rejects (a store key for a
/// layout that cannot run).
bool countsUsable(const Options &Opts) {
  const int64_t Threads = Opts.getInt("threads", 1);
  if (Threads < 1 || Threads > static_cast<int64_t>(StatsShardCount)) {
    std::fprintf(stderr, "model_ctl: --threads must be in [1, %zu]\n",
                 StatsShardCount);
    return false;
  }
  if (Opts.getInt("runs", 1) < 1) {
    std::fputs("model_ctl: --runs must be at least 1\n", stderr);
    return false;
  }
  const int64_t Shards = Opts.getInt("shards", 1);
  if (Shards < 1 || Shards > MaxShardCount ||
      !isValidShardCount(static_cast<unsigned>(Shards))) {
    std::fprintf(stderr,
                 "model_ctl: --shards=%lld is not a power of two in [1, %u]\n",
                 static_cast<long long>(Shards), MaxShardCount);
    return false;
  }
  return true;
}

int cmdSave(const Options &Opts) {
  std::string Workload = Opts.getString("workload", "");
  std::string Out = Opts.getString("out", "");
  std::string StoreDir = Opts.getString("store", "");
  if (Workload.empty() || (Out.empty() && StoreDir.empty())) {
    std::fputs("error: save needs --workload and --out and/or --store\n",
               stderr);
    return 2;
  }
  unsigned Threads = static_cast<unsigned>(Opts.getInt("threads", 8));
  unsigned Runs = static_cast<unsigned>(Opts.getInt("runs", 5));
  SizeClass Size = parseSizeClass(Opts.getString("size", "medium"));
  ShardConfig Shards = shardConfigFor(Opts);

  auto W = createStampWorkload(Workload, Size);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }

  std::printf("profiling %s (%s input), %u runs x %u threads...\n",
              Workload.c_str(), sizeClassName(Size), Runs, Threads);
  RunnerConfig RC;
  RC.Threads = Threads;
  Tsa Model;
  for (unsigned Run = 0; Run < Runs; ++Run)
    Model.addRun(runWorkloadOnce(*W, RC, 1000 + Run, nullptr).Tuples);
  std::printf("trained: %zu states, %lu transitions\n", Model.numStates(),
              static_cast<unsigned long>(Model.numTransitions()));

  if (!Out.empty()) {
    std::string Detail;
    if (saveModel(Model, Out, &Detail) != ModelIoStatus::Ok) {
      std::fprintf(stderr, "error: %s\n", Detail.c_str());
      return 2;
    }
    std::printf("wrote %s\n", Out.c_str());
  }
  if (!StoreDir.empty()) {
    ModelStore Store(StoreDir);
    ModelKey Key = keyFor(Workload, Threads, Size, Shards);
    std::string Detail;
    if (Store.save(Key, Model, &Detail) != ModelIoStatus::Ok) {
      std::fprintf(stderr, "error: %s\n", Detail.c_str());
      return 2;
    }
    std::printf("published %s -> %s\n", Key.id().c_str(),
                Store.pathFor(Key).c_str());
  }
  return 0;
}

int cmdInfo(const Options &Opts) {
  if (Opts.positionals().size() < 2) {
    std::fputs("error: info needs a model file operand\n", stderr);
    return 2;
  }
  const std::string &Path = Opts.positionals()[1];
  ModelLoadResult R = loadModel(Path);
  if (!R.ok()) {
    reportLoadFailure(Path, R);
    return 2;
  }
  const Tsa &Model = *R.Model;
  if (Opts.getBool("json", false)) {
    std::fputs(modelToJson(Model).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  AnalyzerConfig AC;
  AC.Tfactor = Opts.getDouble("tfactor", 4.0);
  AnalyzerReport Report = analyzeModel(Model, AC);
  std::printf("file:             %s\n", Path.c_str());
  std::printf("states:           %zu\n", Model.numStates());
  std::printf("transitions:      %lu\n",
              static_cast<unsigned long>(Model.numTransitions()));
  std::printf("approx size:      %zu bytes\n", Model.approxSizeBytes());
  std::printf("guidance metric:  %.1f%% (Tfactor %.1f) -> %s\n",
              Report.GuidanceMetricPercent, AC.Tfactor,
              Report.Optimizable ? "guidable" : "not worth guiding");
  return 0;
}

int cmdDiff(const Options &Opts) {
  if (Opts.positionals().size() < 3) {
    std::fputs("error: diff needs two model file operands\n", stderr);
    return 2;
  }
  const std::string &PathA = Opts.positionals()[1];
  const std::string &PathB = Opts.positionals()[2];
  ModelLoadResult A = loadModel(PathA);
  if (!A.ok()) {
    reportLoadFailure(PathA, A);
    return 2;
  }
  ModelLoadResult B = loadModel(PathB);
  if (!B.ok()) {
    reportLoadFailure(PathB, B);
    return 2;
  }

  // The serialized form is canonical (deterministic state and edge
  // order), so byte equality of the re-encodings is model equality.
  if (serializeModel(*A.Model) == serializeModel(*B.Model)) {
    std::printf("models identical: %zu states, %lu transitions\n",
                A.Model->numStates(),
                static_cast<unsigned long>(A.Model->numTransitions()));
    return 0;
  }

  size_t Shared = 0;
  for (StateId S = 0; S < A.Model->numStates(); ++S)
    if (B.Model->lookup(A.Model->state(S)))
      ++Shared;
  std::printf("models differ\n");
  std::printf("  A: %zu states, %lu transitions\n", A.Model->numStates(),
              static_cast<unsigned long>(A.Model->numTransitions()));
  std::printf("  B: %zu states, %lu transitions\n", B.Model->numStates(),
              static_cast<unsigned long>(B.Model->numTransitions()));
  std::printf("  shared states: %zu\n", Shared);
  return 1;
}

int cmdLoad(const Options &Opts) {
  if (Opts.positionals().size() < 2) {
    std::fputs("error: load needs a model file operand\n", stderr);
    return 2;
  }
  const std::string &Path = Opts.positionals()[1];
  ModelLoadResult R = loadModel(Path);
  if (!R.ok()) {
    reportLoadFailure(Path, R);
    return 1;
  }
  std::printf("ok: %zu states, %lu transitions\n", R.Model->numStates(),
              static_cast<unsigned long>(R.Model->numTransitions()));
  if (!Opts.getBool("run", false))
    return 0;

  std::string Workload = Opts.getString("workload", "");
  auto W = createStampWorkload(
      Workload, parseSizeClass(Opts.getString("size", "medium")));
  if (!W) {
    std::fprintf(stderr, "error: --run needs a valid --workload\n");
    return 2;
  }
  ExperimentConfig EC;
  EC.Threads = static_cast<unsigned>(Opts.getInt("threads", 8));
  EC.MeasureRuns = static_cast<unsigned>(Opts.getInt("runs", 3));
  EC.ForceGuided = true;
  ExperimentResult Res =
      runExperimentWithModel(*W, EC, std::move(*R.Model));
  std::printf("warm-start run: %u profiling runs, %lu profiling commits "
              "(must be 0)\n",
              Res.ProfileRunsExecuted,
              static_cast<unsigned long>(Res.ProfileCommits));
  std::printf("guided: %lu commits, %lu known-state resolutions, "
              "%lu holds\n",
              static_cast<unsigned long>(Res.Guided.TotalCommits),
              static_cast<unsigned long>(Res.Guided.Guide.KnownStates),
              static_cast<unsigned long>(Res.Guided.Guide.Holds));
  return Res.Default.AllVerified && Res.Guided.AllVerified ? 0 : 1;
}

int cmdList(const Options &Opts) {
  std::string StoreDir = Opts.getString("store", "");
  if (StoreDir.empty()) {
    std::fputs("error: list needs --store=DIR\n", stderr);
    return 2;
  }
  ModelStore Store(StoreDir);
  std::vector<StoreEntry> Entries = Store.list();
  if (Entries.empty()) {
    std::printf("store %s is empty\n", StoreDir.c_str());
    return 0;
  }
  for (const StoreEntry &E : Entries)
    std::printf("%-40s workload=%s threads=%u states=%lu transitions=%lu\n",
                E.File.c_str(), E.Key.Workload.c_str(), E.Key.Threads,
                static_cast<unsigned long>(E.NumStates),
                static_cast<unsigned long>(E.NumTransitions));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "model_ctl", "train, persist, inspect and compare TSA models",
      {
          {"workload", "NAME", "STAMP workload to profile (save/load)"},
          {"threads", "N", "worker threads, in [1, 64] (default 8)"},
          {"runs", "N", "profiling or measurement runs, at least 1 "
                        "(default 5/3)"},
          {"size", "CLASS", "input size: small|medium|large"},
          {"out", "FILE", "write the trained model here (save)"},
          {"store", "DIR", "model store directory (save/list)"},
          {"shards", "N", "shard contexts the model is keyed for, a power "
                          "of two in [1, 64] (default 1 = unsharded)"},
          {"steer", "", "key the model for steered placement"},
          {"tfactor", "X", "analyzer threshold factor (info)"},
          {"json", "", "info: dump the JSON interchange document"},
          {"run", "", "load: warm-start a guided measurement"},
      },
      "<save|info|diff|load|list> [FILE...]");
  Options Opts = Cli.parseOrExit(Argc, Argv);
  if (!countsUsable(Opts))
    return 2;

  if (Opts.positionals().empty()) {
    std::fputs(Cli.usage().c_str(), stderr);
    return 2;
  }
  const std::string &Cmd = Opts.positionals()[0];
  if (Cmd == "save")
    return cmdSave(Opts);
  if (Cmd == "info")
    return cmdInfo(Opts);
  if (Cmd == "diff")
    return cmdDiff(Opts);
  if (Cmd == "load")
    return cmdLoad(Opts);
  if (Cmd == "list")
    return cmdList(Opts);
  std::fprintf(stderr, "error: unknown command '%s'\n%s", Cmd.c_str(),
               Cli.usage().c_str());
  return 2;
}
