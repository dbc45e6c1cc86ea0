//===- tools/model_ctl.cpp - model lifecycle control ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Command-line front end of the model lifecycle (src/model), the analogue
// of the paper artifact's `state_data` files:
//
//   model_ctl save --workload=NAME --out=FILE
//       profile the workload and write the trained TSA to FILE
//   model_ctl info FILE [--tfactor=X]
//       census, analyzer verdict and the hottest states in the paper's
//       notation with their high-probability destinations
//   model_ctl diff A B
//       structural comparison and state overlap (how well training
//       inputs cover testing behaviour); exits 0 identical / 1 different
//       / 2 error (GNU diff convention)
//   model_ctl load FILE [--run --workload=NAME]
//       validate a model file; with --run, warm-start guided measurement
//       from it — zero profiling transactions in this process
//   model_ctl stats FILE
//       read a telemetry JSON export (runResultJson / experimentJson, or
//       a bare telemetry object), print the abort breakdown by cause and
//       site plus the retries-before-commit histogram, and re-verify that
//       each breakdown sums *exactly* to the aggregate counters and that
//       each experiment side's gate counters are consistent (forced plus
//       all-held releases <= holds <= gate checks); exits 1 on a
//       mismatch, 2 when the file is unreadable or holds no telemetry
//
// A model file is the JSON document of model/Serialize.h, the format the
// bench/e2e pinned models use. Every model failure path reports the typed
// ModelIoStatus, so a truncated or malformed file names its defect
// instead of "cannot load".
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/JsonExport.h"
#include "model/Serialize.h"
#include "stamp/Registry.h"
#include "stm/StatsShard.h"
#include "support/Options.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

using namespace gstm;

namespace {

void reportLoadFailure(const std::string &Path, const ModelLoadResult &R) {
  std::fprintf(stderr, "error: %s: %s (%s)\n", Path.c_str(),
               modelIoStatusName(R.Status), R.Detail.c_str());
}

/// Hottest states `info` lists, by outbound traffic.
constexpr unsigned TopStates = 10;

int cmdSave(const Options &Opts) {
  std::string Workload = Opts.getString("workload", "");
  std::string Out = Opts.getString("out", "");
  if (Workload.empty() || Out.empty()) {
    std::fputs("error: save needs --workload and --out\n", stderr);
    return 2;
  }
  // More threads than stats shards would alias single-writer shards, and
  // zero runs (or 2^32, which wraps to zero) would save an empty model.
  unsigned Threads = Opts.getInt("threads", 8, 1, StatsShardCount);
  unsigned Runs = Opts.getInt("runs", 5, 1, UINT32_MAX);
  SizeClass Size =
      Opts.getEnum("size", "medium", sizeClassFromName, SizeClassNames);

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

  std::string Detail;
  if (saveModel(Model, Out, &Detail) != ModelIoStatus::Ok) {
    std::fprintf(stderr, "error: %s\n", Detail.c_str());
    return 2;
  }
  std::printf("wrote %s\n", Out.c_str());
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
  AnalyzerConfig AC;
  // highProbabilityPrefix's precondition: below 1 no transition is
  // admitted.
  AC.Tfactor = Opts.getDouble("tfactor", 4.0, 1, HUGE_VAL);
  AnalyzerReport Report = analyzeModel(Model, AC);
  std::printf("file:             %s\n", Path.c_str());
  std::printf("states:           %zu\n", Model.numStates());
  std::printf("transitions:      %lu\n",
              static_cast<unsigned long>(Model.numTransitions()));
  std::printf("approx size:      %zu bytes\n", Model.approxSizeBytes());
  std::printf("guidance metric:  %.1f%% (Tfactor %.1f) -> %s\n",
              Report.GuidanceMetricPercent, AC.Tfactor,
              Report.Optimizable ? "guidable" : "not worth guiding");
  std::printf("mean out-degree:  %.2f (guided: %.2f)\n\n",
              Report.MeanOutDegree, Report.MeanGuidedOutDegree);

  std::vector<std::pair<uint64_t, StateId>> ByTraffic;
  for (StateId S = 0; S < Model.numStates(); ++S)
    ByTraffic.push_back({Model.outFrequency(S), S});
  std::sort(ByTraffic.rbegin(), ByTraffic.rend());
  std::printf("top %u states by outbound traffic:\n", TopStates);
  for (unsigned I = 0; I < TopStates && I < ByTraffic.size(); ++I) {
    StateId S = ByTraffic[I].second;
    std::printf("  %-28s seen %lu\n", Model.state(S).format().c_str(),
                static_cast<unsigned long>(ByTraffic[I].first));
    for (const TsaEdge &E : highProbabilitySuccessors(Model, S, AC.Tfactor))
      std::printf("      -%.3f-> %s\n", E.Probability,
                  Model.state(E.Dest).format().c_str());
  }
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

  // The document is canonical (deterministic state and edge order), so
  // equal re-rendered text is model equality.
  if (modelToJson(*A.Model) == modelToJson(*B.Model)) {
    std::printf("models identical: %zu states, %lu transitions\n",
                A.Model->numStates(),
                static_cast<unsigned long>(A.Model->numTransitions()));
    return 0;
  }

  const size_t StatesA = A.Model->numStates();
  const size_t StatesB = B.Model->numStates();
  size_t Shared = 0;
  for (StateId S = 0; S < StatesA; ++S)
    if (B.Model->lookup(A.Model->state(S)))
      ++Shared;
  auto Percent = [](size_t Part, size_t Whole) {
    return Whole ? 100.0 * static_cast<double>(Part) / Whole : 0.0;
  };
  std::printf("models differ\n");
  std::printf("  A: %zu states, %lu transitions\n", StatesA,
              static_cast<unsigned long>(A.Model->numTransitions()));
  std::printf("  B: %zu states, %lu transitions\n", StatesB,
              static_cast<unsigned long>(B.Model->numTransitions()));
  std::printf("  shared states: %zu (%.1f%% of A, %.1f%% of B)\n", Shared,
              Percent(Shared, StatesA), Percent(Shared, StatesB));
  std::printf("  guided by A, %.1f%% of B's states are unknown (unknown "
              "states pass threads through unguided)\n",
              Percent(StatesB - Shared, StatesB));
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
      Workload,
      Opts.getEnum("size", "medium", sizeClassFromName, SizeClassNames));
  if (!W) {
    std::fprintf(stderr, "error: --run needs a valid --workload\n");
    return 2;
  }
  ExperimentConfig EC;
  EC.Threads = Opts.getInt("threads", 8, 1, StatsShardCount);
  EC.MeasureRuns = Opts.getInt("runs", 3, 1, UINT32_MAX);
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

/// Prints one telemetry object's breakdowns and returns whether each
/// breakdown sums exactly to its aggregate counter.
bool printAndVerifySnapshot(const char *Label, const StatsSnapshot &Snap) {
  std::printf("[%s]\n", Label);
  std::printf("  commits:   %lu (%lu read-only)\n", Snap.Commits,
              Snap.ReadOnlyCommits);
  std::printf("  aborts:    %lu\n", Snap.Aborts);
  std::printf("  by cause:\n");
  for (size_t C = 0; C < NumAbortCauses; ++C)
    std::printf("    %-18s %lu\n",
                abortCauseName(static_cast<AbortCauseKind>(C)),
                Snap.AbortsByCause[C]);
  std::printf("  by site:\n");
  for (size_t S = 0; S < NumAbortSites; ++S)
    std::printf("    %-18s %lu\n", abortSiteName(static_cast<AbortSite>(S)),
                Snap.AbortsBySite[S]);
  std::printf("  retries-before-commit:");
  for (size_t B = 0; B < RetryHistogramBuckets; ++B)
    std::printf(" %lu", Snap.RetryHistogram[B]);
  std::printf("\n");
  if (Snap.Attempts)
    std::printf("  attempts:  %lu (mean latency %.0f ns)\n", Snap.Attempts,
                Snap.meanAttemptNanos());
  if (Snap.CrossShardCommits || Snap.CrossShardAborts || Snap.PrepareRetries)
    std::printf("  sharding:  %lu cross-shard commits, %lu cross-shard "
                "aborts, %lu prepare retries\n",
                Snap.CrossShardCommits, Snap.CrossShardAborts,
                Snap.PrepareRetries);

  bool Ok = true;
  auto Check = [&](bool Holds, const char *What, uint64_t Got,
                   uint64_t Bound) {
    if (Holds)
      return;
    std::fprintf(stderr, "MISMATCH [%s]: %s: %lu vs %lu\n", Label, What,
                 static_cast<unsigned long>(Got),
                 static_cast<unsigned long>(Bound));
    Ok = false;
  };
  Check(Snap.causeTotal() == Snap.Aborts, "abort causes sum != aborts",
        Snap.causeTotal(), Snap.Aborts);
  Check(Snap.siteTotal() == Snap.Aborts, "abort sites sum != aborts",
        Snap.siteTotal(), Snap.Aborts);
  Check(Snap.retryTotal() == Snap.Commits,
        "retry histogram sum != commits", Snap.retryTotal(), Snap.Commits);
  Check(Snap.ReadOnlyCommits <= Snap.Commits,
        "read-only commits > commits", Snap.ReadOnlyCommits, Snap.Commits);
  Check(Snap.CrossShardCommits <= Snap.Commits,
        "cross-shard commits > commits", Snap.CrossShardCommits,
        Snap.Commits);
  Check(Snap.CrossShardAborts <= Snap.Aborts, "cross-shard aborts > aborts",
        Snap.CrossShardAborts, Snap.Aborts);
  std::printf("  invariants: %s\n\n", Ok ? "ok" : "VIOLATED");
  return Ok;
}

/// Prints one side's gate counters and returns whether every release
/// ends a hold and every hold is a gate check.
bool printAndVerifyGuide(const char *Label, const JsonValue &Guide) {
  auto Count = [&](const char *Key) -> uint64_t {
    const JsonValue *V = Guide.find(Key);
    return V ? V->asU64() : 0;
  };
  const uint64_t Checks = Count("gate_checks"), Holds = Count("holds"),
                 Forced = Count("forced_releases"),
                 AllHeld = Count("all_held_releases");
  std::printf("[%s guide]\n", Label);
  std::printf("  gate checks: %lu, holds: %lu (%lu retries, %lu forced, "
              "%lu all-held releases)\n",
              static_cast<unsigned long>(Checks),
              static_cast<unsigned long>(Holds),
              static_cast<unsigned long>(Count("gate_retries")),
              static_cast<unsigned long>(Forced),
              static_cast<unsigned long>(AllHeld));
  bool Ok = true;
  if (Forced + AllHeld > Holds) {
    std::fprintf(stderr,
                 "MISMATCH [%s]: forced + all-held releases > holds: %lu "
                 "vs %lu\n",
                 Label, static_cast<unsigned long>(Forced + AllHeld),
                 static_cast<unsigned long>(Holds));
    Ok = false;
  }
  if (Holds > Checks) {
    std::fprintf(stderr, "MISMATCH [%s]: holds > gate checks: %lu vs %lu\n",
                 Label, static_cast<unsigned long>(Holds),
                 static_cast<unsigned long>(Checks));
    Ok = false;
  }
  std::printf("  invariants: %s\n\n", Ok ? "ok" : "VIOLATED");
  return Ok;
}

int cmdStats(const Options &Opts) {
  if (Opts.positionals().size() < 2) {
    std::fputs("error: stats needs a telemetry JSON operand\n", stderr);
    return 2;
  }
  const std::string &Path = Opts.positionals()[1];
  std::optional<std::string> Text = readTextFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 2;
  }
  std::optional<JsonValue> Doc = parseJson(*Text);
  if (!Doc) {
    std::fprintf(stderr, "error: '%s' is not valid JSON\n", Path.c_str());
    return 2;
  }

  // The telemetry objects in the document: the document itself (bare
  // telemetry) or its "telemetry" member (run export), plus one per side
  // of an experiment export.
  std::vector<std::pair<const char *, const JsonValue *>> Objects;
  if (Doc->find("commits") && Doc->find("abort_causes"))
    Objects.push_back({"telemetry", &*Doc});
  else if (const JsonValue *T = Doc->find("telemetry"))
    Objects.push_back({"telemetry", T});
  for (const char *Side : {"default", "guided"})
    if (const JsonValue *S = Doc->find(Side))
      if (const JsonValue *T = S->find("telemetry"))
        Objects.push_back({Side, T});
  if (Objects.empty()) {
    std::fprintf(stderr, "error: no telemetry object in '%s'\n",
                 Path.c_str());
    return 2;
  }

  bool Ok = true;
  for (auto [Label, Telemetry] : Objects) {
    std::optional<StatsSnapshot> Snap = snapshotFromJson(*Telemetry);
    if (!Snap) {
      std::fprintf(stderr, "error: '%s' in '%s' is not a telemetry object\n",
                   Label, Path.c_str());
      return 2;
    }
    Ok = printAndVerifySnapshot(Label, *Snap) && Ok;
    // Per-thread shards of a run export must sum back to the aggregate.
    if (const JsonValue *PerThread = Telemetry->find("per_thread")) {
      StatsSnapshot Sum;
      for (const JsonValue &Shard : PerThread->Items)
        if (std::optional<StatsSnapshot> S = snapshotFromJson(Shard))
          Sum.merge(*S);
      if (Sum.Commits != Snap->Commits || Sum.Aborts != Snap->Aborts) {
        std::fprintf(stderr,
                     "MISMATCH [%s]: per-thread shards sum to %lu/%lu "
                     "commits/aborts, aggregate says %lu/%lu\n",
                     Label, static_cast<unsigned long>(Sum.Commits),
                     static_cast<unsigned long>(Sum.Aborts),
                     static_cast<unsigned long>(Snap->Commits),
                     static_cast<unsigned long>(Snap->Aborts));
        Ok = false;
      }
    }
  }
  for (const char *Side : {"default", "guided"})
    if (const JsonValue *S = Doc->find(Side))
      if (const JsonValue *G = S->find("guide"))
        Ok = printAndVerifyGuide(Side, *G) && Ok;
  return Ok ? 0 : 1;
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
          {"out", "FILE", "write the trained model (JSON) here (save)"},
          {"tfactor", "X", "analyzer threshold factor, at least 1 "
                           "(info, default 4)"},
          {"run", "", "load: warm-start a guided measurement"},
      },
      "<save|info|diff|load|stats> [FILE...]");
  Options Opts = Cli.parseOrExit(Argc, Argv);

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
  if (Cmd == "stats")
    return cmdStats(Opts);
  std::fprintf(stderr, "error: unknown command '%s'\n%s", Cmd.c_str(),
               Cli.usage().c_str());
  return 2;
}
