//===- bench/e2e/gstm_bench.cpp - End-to-end guided-STM benchmark ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the end-to-end benchmark in one process with two
/// worker threads and prints every metric as `metric <name> <value>
/// <unit>`, after a provenance header and before a `result attempted=N
/// failed=M` line. Exit status: 0 when every verification passed, 1 when
/// some failed, 2 on bad usage, 3 when a pinned model does not load.
///
///   gstm_bench --workload=guided-vacation --seed=1 --seconds=20
///   gstm_bench --workload=ycsb-a-btree --trace=trace.json   (per-layer)
///   gstm_bench --train                       (regenerate pinned models)
///
/// Workloads (bench/e2e/README.md says why each was chosen):
///   guided-genome, guided-vacation  guided runs of the large input under
///                                   a pinned model; set-up profiles the
///                                   medium input
///   ycsb-a-btree                    runOltp: closed-loop YCSB-A over the
///                                   TL2 B-tree
///   shard-xshard-steered            runShardBench: 50% cross-group
///                                   traffic, steering on
///
//===----------------------------------------------------------------------===//

#include "TracedRuns.h"
#include "Tracing.h"

#include "bench/OltpBench.h"
#include "bench/ShardBench.h"
#include "core/Analyzer.h"
#include "core/GuidedPolicy.h"
#include "core/Runner.h"
#include "model/Serialize.h"
#include "stamp/Registry.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace gstm;
using namespace gstm::e2e;

namespace {

/// Every workload runs with exactly this many worker threads.
constexpr unsigned Threads = 2;
/// Tfactor and analyzer thresholds of the experiment pipeline
/// (core/Experiment.h), MinStates at its automatic 6 * Threads.
constexpr double Tfactor = 4.0;
const AnalyzerConfig ModelAnalyzer = {.Tfactor = Tfactor,
                                      .MetricRejectThreshold = 50.0,
                                      .MinStates = 6 * Threads};
/// Profile runs per set-up (and per --train attempt).
constexpr unsigned ProfileRuns = 20;
/// Inputs the measured guided runs cycle through.
constexpr unsigned InputsPerRun = 8;

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics: what a user of each workload waits for. The unit
/// of work behind the two latency metrics differs per workload; README.md
/// defines each.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
};

/// Per-layer metrics of the traced run, named after the src/ module whose
/// calls they time or count. A layer a workload does not exercise reads 0.
constexpr MetricDef PerLayer[] = {
    {"stm.abort_ratio", "ratio"},
    {"stm.abort_tail", "aborts2"},
    {"stm.attempts_per_commit", "count"},
    {"stm.attempt_ns_mean", "ns"},
    {"stm.abort_site.read_share", "ratio"},
    {"stm.abort_site.lock_share", "ratio"},
    {"stm.abort_site.validate_share", "ratio"},
    {"stm.commit_ring_miss_ratio", "ratio"},
    {"core.gate.hold_ratio", "ratio"},
    {"core.gate.forced_ratio", "ratio"},
    {"core.gate.retries_per_hold", "count"},
    {"core.gate.hold_share", "ratio"},
    {"core.gate.pass_share", "ratio"},
    {"core.observer.commit_share", "ratio"},
    {"core.observer.abort_share", "ratio"},
    {"core.tts.unknown_state_ratio", "ratio"},
    {"core.tts.distinct_states", "count"},
    {"core.thread_cpu_cv", "ratio"},
    {"core.paper_tail_metric", "aborts2"},
    {"core.analyzer.guidance_metric_percent", "%"},
    {"core.analyzer.states", "count"},
    {"stamp.body_self_share", "ratio"},
    {"core.profile.setup_share", "ratio"},
    {"core.tsa.setup_share", "ratio"},
    {"core.analyzer.setup_share", "ratio"},
    {"core.policy.setup_share", "ratio"},
    {"model.load.setup_share", "ratio"},
    {"tmds.load.setup_share", "ratio"},
    {"tmds.read_p50_rel", "ratio"},
    {"tmds.read_p99_rel", "ratio"},
    {"tmds.update_p50_rel", "ratio"},
    {"tmds.update_p99_rel", "ratio"},
    {"shard.xshard_ratio", "ratio"},
    {"shard.prepare_retries_per_commit", "count"},
    {"shard.steer.warmup.setup_share", "ratio"},
    {"shard.steer.build_placement.setup_share", "ratio"},
    {"shard.steer.install.setup_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Named values of one metric table, printed in table order.
class MetricSet {
public:
  template <size_t N>
  explicit MetricSet(const MetricDef (&Defs)[N]) : Defs(Defs, Defs + N) {
    for (const MetricDef &D : this->Defs)
      Values[D.Name] = 0.0;
  }

  void setMetric(const std::string &Name, double Value) {
    auto It = Values.find(Name);
    if (It == Values.end()) {
      std::fprintf(stderr, "internal error: unknown metric %s\n",
                   Name.c_str());
      std::abort();
    }
    It->second = std::isfinite(Value) ? Value : 0.0;
  }

  void printMetrics() const {
    for (const MetricDef &D : Defs)
      std::printf("metric %s %.12g %s\n", D.Name, Values.at(D.Name), D.Unit);
  }

private:
  std::vector<MetricDef> Defs;
  std::map<std::string, double> Values;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Quantile \p Q of \p V with linear interpolation between order
/// statistics (the "inclusive" definition); 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Quantile \p Q of \p H, interpolated linearly inside the log-linear
/// bucket that holds the nearest-rank sample. LatencyHistogram::quantile
/// reports the bucket's upper bound, which moves in 3% steps; the
/// interpolated value moves with the samples' position in the bucket.
double histQuantile(const LatencyHistogram &H, double Q) {
  const uint64_t N = H.count();
  if (N == 0)
    return 0.0;
  const uint64_t Rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N))));
  // Value reported for rank R (the half-rank offset keeps ceil() exact).
  auto AtRank = [&](uint64_t R) {
    return H.quantile((static_cast<double>(R) - 0.5) /
                      static_cast<double>(N));
  };
  const uint64_t Value = AtRank(Rank);
  // First and last rank that land in the same bucket.
  uint64_t Lo = 1, Hi = Rank;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (AtRank(Mid) < Value)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  const uint64_t First = Lo;
  Lo = Rank;
  Hi = N;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo + 1) / 2;
    if (AtRank(Mid) > Value)
      Hi = Mid - 1;
    else
      Lo = Mid;
  }
  const uint64_t Last = Lo;
  const size_t Bucket = LatencyHistogram::bucketIndex(Value);
  const double Upper = static_cast<double>(Value);
  const double Lower = std::max(
      static_cast<double>(H.min()),
      Bucket == 0 ? 0.0
                  : static_cast<double>(
                        LatencyHistogram::bucketUpperBound(Bucket - 1) + 1));
  const double Frac = (static_cast<double>(Rank - First) + 0.5) /
                      static_cast<double>(Last - First + 1);
  return Lower + Frac * (std::max(Upper, Lower) - Lower);
}

/// Mean over commits of j^2, j = aborted attempts before the commit (the
/// last retry bucket counts as its lower bound).
double meanSquaredRetries(const StatsSnapshot &S) {
  double Sum = 0;
  for (size_t J = 0; J < RetryHistogramBuckets; ++J)
    Sum += static_cast<double>(S.RetryHistogram[J]) *
           static_cast<double>(J * J);
  return ratio(Sum, static_cast<double>(S.Commits));
}

void setStmLayer(MetricSet &L, const StatsSnapshot &S) {
  const double Attempts = static_cast<double>(S.Commits + S.Aborts);
  const double Aborts = static_cast<double>(S.Aborts);
  auto SiteShare = [&](AbortSite Site) {
    return ratio(
        static_cast<double>(S.AbortsBySite[static_cast<size_t>(Site)]),
        Aborts);
  };
  L.setMetric("stm.abort_ratio", ratio(Aborts, Attempts));
  L.setMetric("stm.abort_tail", meanSquaredRetries(S));
  L.setMetric("stm.attempts_per_commit",
              ratio(Attempts, static_cast<double>(S.Commits)));
  L.setMetric("stm.attempt_ns_mean", S.meanAttemptNanos());
  L.setMetric("stm.abort_site.read_share", SiteShare(AbortSite::Read));
  L.setMetric("stm.abort_site.lock_share", SiteShare(AbortSite::LockAcquire));
  L.setMetric("stm.abort_site.validate_share",
              SiteShare(AbortSite::CommitValidate));
  L.setMetric("stm.commit_ring_miss_ratio", S.commitRingMissRatio());
}

//===----------------------------------------------------------------------===//
// Command line and provenance
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  std::string TraceFile;
  bool Smoke = false;
  std::string ModelsDir;
  std::string GitSha;
};

/// What one workload reports.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricSet E2e{EndToEnd};
  MetricSet Layers{PerLayer};
  /// Sample counts behind the latency metrics, printed as an `info` line.
  std::string Info;
  /// Spans of the traced run (unused otherwise).
  SpanLog Spans;

  void verified(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
    return "unknown";
  for (unsigned I = 0; I < 3; ++I)
    __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                &Regs[4 * I + 2], &Regs[4 * I + 3]);
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S(Brand);
  S.erase(0, S.find_first_not_of(' '));
  S.erase(S.find_last_not_of(' ') + 1);
  return S.empty() ? "unknown" : S;
#else
  return "unknown";
#endif
}

void printProvenance(const Args &A) {
  std::printf("gstm_bench workload=%s seed=%llu seconds=%g threads=%u "
              "trace=%s smoke=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, Threads,
              A.TraceFile.empty() ? "off" : A.TraceFile.c_str(), A.Smoke);
#ifdef __clang__
  const char *Compiler = "clang " __clang_version__;
#else
  const char *Compiler = "gcc " __VERSION__;
#endif
  std::printf("provenance nproc=%u cpu=\"%s\" compiler=\"%s\" "
              "build_type=%s git_sha=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
              Compiler, GSTM_E2E_BUILD_TYPE, A.GitSha.c_str());
}

//===----------------------------------------------------------------------===//
// Guided workloads: guided-genome, guided-vacation
//===----------------------------------------------------------------------===//

std::string pinnedModelPath(const Args &A, const std::string &Stamp) {
  return A.ModelsDir + "/" + Stamp + "_t2.json";
}

RunnerConfig guidedRunnerConfig(bool CollectTrace) {
  RunnerConfig RC;
  RC.Threads = Threads;
  RC.CollectTrace = CollectTrace;
  return RC;
}

/// Everything the measured runs need, plus the set-up's phase times.
struct GuidedSetup {
  std::unique_ptr<GuidedPolicy> Policy;
  AnalyzerReport Fresh;
  double ProfileS = 0, TsaS = 0, AnalyzerS = 0, LoadS = 0, PolicyS = 0;
  double TotalS = 0;
};

/// The guided set-up: profile the training input, build and analyze a
/// fresh model, load the pinned model and compile its policy. The fresh
/// model only measures set-up cost and model-quality drift; the measured
/// runs use the pinned one, because models trained at two threads differ
/// between trainings. Returns false when the pinned model does not load.
bool setUpGuided(const Args &A, const std::string &Stamp, TlWorkload &Train,
                 SpanLog *Spans, Report &Rep, GuidedSetup &Out) {
  ScopedSpan Total(Spans, "setup", 0, -1);
  const unsigned Runs = A.Smoke ? 2 : ProfileRuns;
  Tsa Fresh;
  for (unsigned I = 0; I < Runs; ++I) {
    ScopedSpan Profile(Spans, "core.profile.run", Total.id(), I);
    RunResult R = runWorkloadOnce(Train, guidedRunnerConfig(true),
                                  1000 * A.Seed + I, nullptr);
    Out.ProfileS += Profile.closeSpan();
    Rep.verified(R.Verified);
    ScopedSpan AddRun(Spans, "core.tsa.add_run", Total.id(), I);
    Fresh.addRun(R.Tuples);
    Out.TsaS += AddRun.closeSpan();
  }
  {
    ScopedSpan Analyze(Spans, "core.analyzer", Total.id(), -1);
    Out.Fresh = analyzeModel(Fresh, ModelAnalyzer);
    Out.AnalyzerS = Analyze.closeSpan();
  }

  const std::string Path = pinnedModelPath(A, Stamp);
  ModelLoadResult Loaded;
  {
    ScopedSpan Load(Spans, "model.load", Total.id(), -1);
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      Loaded.Status = ModelIoStatus::FileNotFound;
      Loaded.Detail = "cannot open file";
    } else {
      std::stringstream Text;
      Text << In.rdbuf();
      Loaded = modelFromJson(Text.str());
    }
    Out.LoadS = Load.closeSpan();
  }
  if (!Loaded.ok()) {
    std::fprintf(stderr, "error: pinned model %s: %s (%s)\n", Path.c_str(),
                 modelIoStatusName(Loaded.Status), Loaded.Detail.c_str());
    return false;
  }
  {
    ScopedSpan Compile(Spans, "core.policy.compile", Total.id(), -1);
    Out.Policy =
        std::make_unique<GuidedPolicy>(std::move(*Loaded.Model), Tfactor);
    Out.PolicyS = Compile.closeSpan();
  }
  Out.TotalS = Total.closeSpan();
  return true;
}

/// Per-layer numbers accumulated over a guided run's traced runs.
struct GuidedTraceTotals {
  GuideStats Guide;
  LayerCounters Layers;
  StatsSnapshot Telemetry;
  RunningStat DistinctStates;
  RunningStat PaperTail;

  void addTracedRun(const RunResult &R,
                    const std::vector<LayerCounters> &PerThread) {
    Guide.GateChecks += R.Guide.GateChecks;
    Guide.Holds += R.Guide.Holds;
    Guide.GateRetries += R.Guide.GateRetries;
    Guide.ForcedReleases += R.Guide.ForcedReleases;
    Guide.UnknownStates += R.Guide.UnknownStates;
    Guide.KnownStates += R.Guide.KnownStates;
    for (const LayerCounters &C : PerThread)
      Layers.merge(C);
    Telemetry.merge(R.Telemetry);
    std::unordered_set<StateTuple, StateTupleHash> Distinct(R.Tuples.begin(),
                                                            R.Tuples.end());
    DistinctStates.add(static_cast<double>(Distinct.size()));
    double Tail = 0;
    for (const AbortHistogram &H : R.ThreadHists)
      Tail += H.tailMetric();
    PaperTail.add(ratio(Tail, static_cast<double>(R.ThreadHists.size())));
  }
};

/// Mean over inputs and threads of the per-thread CPU-time coefficient of
/// variation across runs of one input (the paper's variance measure,
/// normalized).
double threadCpuCv(const std::vector<std::vector<RunningStat>> &PerInput) {
  double Sum = 0;
  size_t N = 0;
  for (const std::vector<RunningStat> &PerThread : PerInput)
    for (const RunningStat &S : PerThread)
      if (S.count() >= 2) {
        Sum += ratio(S.stddev(), S.mean());
        ++N;
      }
  return ratio(Sum, static_cast<double>(N));
}

/// Returns false when the pinned model does not load.
bool runGuided(const Args &A, const std::string &Stamp, Report &Rep) {
  const SizeClass TrainSize = A.Smoke ? SizeClass::Small : SizeClass::Medium;
  const SizeClass MeasureSize = A.Smoke ? SizeClass::Small : SizeClass::Large;
  std::unique_ptr<TlWorkload> Train = createStampWorkload(Stamp, TrainSize);
  std::unique_ptr<TlWorkload> Measure =
      createStampWorkload(Stamp, MeasureSize);
  const bool Traced = !A.TraceFile.empty();

  // Set-up, repeated so setup_s is a median; the traced run sets up once,
  // with spans.
  const unsigned SetUps = (A.Smoke || Traced) ? 1 : 3;
  std::vector<double> SetupSeconds;
  GuidedSetup Setup;
  for (unsigned I = 0; I < SetUps; ++I) {
    Setup = GuidedSetup();
    if (!setUpGuided(A, Stamp, *Train, Traced ? &Rep.Spans : nullptr, Rep,
                     Setup))
      return false;
    SetupSeconds.push_back(Setup.TotalS);
  }
  const GuidedPolicy &Policy = *Setup.Policy;

  // Measured runs cycle through several inputs: run time depends on the
  // input by up to 10% between seeds, while repeats of one input agree
  // within 2%, so a single input would make the medians track the seed.
  auto InputSeed = [&](int64_t Run) {
    return 100 * A.Seed + static_cast<uint64_t>(Run) % InputsPerRun;
  };

  // Warm-up run: first-touch page faults would otherwise land in the
  // first measured run.
  const RunnerConfig RC = guidedRunnerConfig(false);
  Rep.verified(runWorkloadOnce(*Measure, RC, InputSeed(0), &Policy).Verified);

  const unsigned MinRuns = A.Smoke ? 3 : 2 * InputsPerRun;
  std::vector<double> WallMs, TracedWallMs, OpsPerS;
  // Per input and thread, for the run-to-run CPU-time variation.
  std::vector<std::vector<RunningStat>> CpuSeconds(
      InputsPerRun, std::vector<RunningStat>(Threads));
  GuidedTraceTotals TraceTotals;
  const RunnerConfig TracedRC = guidedRunnerConfig(true);
  Timer Phase;
  for (int64_t Run = 0;
       Phase.elapsedSeconds() < A.Seconds || WallMs.size() < MinRuns;
       ++Run) {
    RunResult R = runWorkloadOnce(*Measure, RC, InputSeed(Run), &Policy);
    Rep.verified(R.Verified);
    WallMs.push_back(R.WallSeconds * 1e3);
    OpsPerS.push_back(ratio(static_cast<double>(R.Commits), R.WallSeconds));
    for (unsigned T = 0; T < Threads; ++T)
      CpuSeconds[Run % InputsPerRun][T].add(R.ThreadSeconds[T]);
    if (!Traced)
      continue;
    std::vector<LayerCounters> Layers;
    RunResult TR = runWorkloadOnceTraced(*Measure, TracedRC, InputSeed(Run),
                                         Policy, Rep.Spans, 0, Run, Layers);
    Rep.verified(TR.Verified);
    TracedWallMs.push_back(TR.WallSeconds * 1e3);
    TraceTotals.addTracedRun(TR, Layers);
  }

  MetricSet &E = Rep.E2e;
  E.setMetric("setup_s", median(SetupSeconds));
  E.setMetric("ops_per_s", median(OpsPerS));
  E.setMetric("latency_ms_p50", quantile(WallMs, 0.5));
  E.setMetric("latency_ms_tail", quantile(WallMs, 0.9));
  Rep.Info = "latency unit=guided_run samples=" +
             std::to_string(WallMs.size()) + " tail=p90 inputs=" +
             std::to_string(InputsPerRun) +
             " setups=" + std::to_string(SetupSeconds.size());
  if (!Traced)
    return true;

  MetricSet &L = Rep.Layers;
  const GuideStats &G = TraceTotals.Guide;
  const LayerCounters &C = TraceTotals.Layers;
  const double Body = static_cast<double>(C.BodyNs);
  setStmLayer(L, TraceTotals.Telemetry);
  L.setMetric("core.gate.hold_ratio", ratio(G.Holds, G.GateChecks));
  L.setMetric("core.gate.forced_ratio", ratio(G.ForcedReleases, G.Holds));
  L.setMetric("core.gate.retries_per_hold", ratio(G.GateRetries, G.Holds));
  L.setMetric("core.gate.hold_share", ratio(C.GateHeldNs, Body));
  L.setMetric("core.gate.pass_share", ratio(C.GatePassNs, Body));
  L.setMetric("core.observer.commit_share", ratio(C.CommitNs, Body));
  L.setMetric("core.observer.abort_share", ratio(C.AbortNs, Body));
  L.setMetric("stamp.body_self_share",
              ratio(Body - static_cast<double>(C.GateHeldNs + C.GatePassNs +
                                               C.CommitNs + C.AbortNs),
                    Body));
  L.setMetric("core.tts.unknown_state_ratio",
              ratio(G.UnknownStates, G.UnknownStates + G.KnownStates));
  L.setMetric("core.tts.distinct_states", TraceTotals.DistinctStates.mean());
  L.setMetric("core.paper_tail_metric", TraceTotals.PaperTail.mean());
  L.setMetric("core.thread_cpu_cv", threadCpuCv(CpuSeconds));
  L.setMetric("core.analyzer.guidance_metric_percent",
              Setup.Fresh.GuidanceMetricPercent);
  L.setMetric("core.analyzer.states",
              static_cast<double>(Setup.Fresh.NumStates));
  L.setMetric("core.profile.setup_share", ratio(Setup.ProfileS, Setup.TotalS));
  L.setMetric("core.tsa.setup_share", ratio(Setup.TsaS, Setup.TotalS));
  L.setMetric("core.analyzer.setup_share",
              ratio(Setup.AnalyzerS, Setup.TotalS));
  L.setMetric("core.policy.setup_share", ratio(Setup.PolicyS, Setup.TotalS));
  L.setMetric("model.load.setup_share", ratio(Setup.LoadS, Setup.TotalS));
  L.setMetric("trace.overhead_pct",
              (ratio(median(TracedWallMs), median(WallMs)) - 1.0) * 100.0);
  return true;
}

//===----------------------------------------------------------------------===//
// ycsb-a-btree
//===----------------------------------------------------------------------===//

void runYcsb(const Args &A, Report &Rep) {
  OltpConfig Cfg;
  Cfg.Structure = "btree";
  Cfg.Backend = "tl2";
  Cfg.Threads = Threads;
  Cfg.Records = A.Smoke ? 1u << 12 : 1u << 20;
  Cfg.Operations = A.Smoke ? 1u << 14 : 1u << 22;
  oltpMixFromName("a", Cfg.Mix);
  Cfg.ZipfTheta = 0.99;
  Cfg.ArrivalRate = 0; // closed loop: one outstanding operation per client

  const bool Traced = !A.TraceFile.empty();
  const unsigned MinRepeats = 2;
  std::vector<double> SetupSeconds, OpsPerS, TracedOpsPerS;
  LatencyHistogram Latency, TracedLatency, ReadLatency, UpdateLatency;
  StatsSnapshot Telemetry;
  double LoadS = 0, TracedSetupS = 0;
  Timer Phase;
  for (unsigned Repeat = 0;
       Phase.elapsedSeconds() < A.Seconds || OpsPerS.size() < MinRepeats;
       ++Repeat) {
    Cfg.Seed = 1000 * A.Seed + Repeat;
    Timer Call;
    OltpResult R = runOltp(Cfg);
    const double CallS = Call.elapsedSeconds();
    Rep.verified(R.Ok);
    if (!R.Ok)
      std::fprintf(stderr, "ycsb repeat %u: %s\n", Repeat, R.Error.c_str());
    // runOltp times only its operations; preload and verification are
    // the rest of the call.
    SetupSeconds.push_back(CallS - R.WallSeconds);
    OpsPerS.push_back(R.opsPerSecond());
    Latency.merge(R.Latency);
    if (!Traced)
      continue;
    TracedOltp T = runOltpTraced(Cfg, Rep.Spans, 0, Repeat);
    Rep.verified(T.Base.Ok);
    TracedOpsPerS.push_back(T.Base.opsPerSecond());
    TracedLatency.merge(T.Base.Latency);
    ReadLatency.merge(T.ReadLatency);
    UpdateLatency.merge(T.UpdateLatency);
    Telemetry.merge(T.Telemetry);
    LoadS += T.LoadSeconds;
    TracedSetupS += T.CallSeconds - T.Base.WallSeconds;
  }

  MetricSet &E = Rep.E2e;
  E.setMetric("setup_s", median(SetupSeconds));
  E.setMetric("ops_per_s", median(OpsPerS));
  E.setMetric("latency_ms_p50", histQuantile(Latency, 0.5) * 1e-6);
  E.setMetric("latency_ms_tail", histQuantile(Latency, 0.99) * 1e-6);
  Rep.Info = "latency unit=operation samples=" +
             std::to_string(Latency.count()) +
             " tail=p99 repeats=" + std::to_string(OpsPerS.size());
  if (!Traced)
    return;

  MetricSet &L = Rep.Layers;
  setStmLayer(L, Telemetry);
  L.setMetric("tmds.load.setup_share", ratio(LoadS, TracedSetupS));
  const double P50 = histQuantile(TracedLatency, 0.5);
  const double P99 = histQuantile(TracedLatency, 0.99);
  L.setMetric("tmds.read_p50_rel", ratio(histQuantile(ReadLatency, 0.5), P50));
  L.setMetric("tmds.read_p99_rel", ratio(histQuantile(ReadLatency, 0.99), P99));
  L.setMetric("tmds.update_p50_rel",
              ratio(histQuantile(UpdateLatency, 0.5), P50));
  L.setMetric("tmds.update_p99_rel",
              ratio(histQuantile(UpdateLatency, 0.99), P99));
  L.setMetric("trace.overhead_pct",
              (ratio(median(OpsPerS), median(TracedOpsPerS)) - 1.0) * 100.0);
}

//===----------------------------------------------------------------------===//
// shard-xshard-steered
//===----------------------------------------------------------------------===//

void runShard(const Args &A, Report &Rep) {
  ShardBenchConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.ShardCount = 4;
  Cfg.Groups = 32;
  Cfg.CellsPerGroup = 32;
  Cfg.OpsPerThread = A.Smoke ? 20000 : 2000000;
  Cfg.WarmupOpsPerThread = A.Smoke ? 4000 : 400000;
  Cfg.CrossPerMille = 500; // bench_runner's `xshard` mix
  Cfg.Steering = true;

  const bool Traced = !A.TraceFile.empty();
  const unsigned MinRepeats = A.Smoke ? 2 : 3;
  std::vector<double> SetupSeconds, OpsPerS, WindowMs, TracedOpsPerS;
  StatsSnapshot Telemetry;
  double WarmupS = 0, BuildS = 0, InstallS = 0, TracedSetupS = 0;
  Timer Phase;
  for (unsigned Repeat = 0;
       Phase.elapsedSeconds() < A.Seconds || OpsPerS.size() < MinRepeats;
       ++Repeat) {
    Cfg.Seed = 1000 * A.Seed + Repeat;
    Timer Call;
    ShardBenchResult R = runShardBench(Cfg);
    const double CallS = Call.elapsedSeconds();
    Rep.verified(R.Ok);
    if (!R.Ok)
      std::fprintf(stderr, "shard repeat %u: %s\n", Repeat, R.Error.c_str());
    // runShardBench times only its measured window; plans, warm-up,
    // placement and the final sum check are the rest of the call.
    SetupSeconds.push_back(CallS - R.WallSeconds);
    OpsPerS.push_back(ratio(static_cast<double>(R.Operations), R.WallSeconds));
    WindowMs.push_back(R.WallSeconds * 1e3);
    if (!Traced)
      continue;
    TracedShard T = runShardBenchTraced(Cfg, Rep.Spans, 0, Repeat);
    Rep.verified(T.Base.Ok);
    TracedOpsPerS.push_back(ratio(static_cast<double>(T.Base.Operations),
                                  T.Base.WallSeconds));
    Telemetry.merge(T.Telemetry);
    WarmupS += T.WarmupSeconds;
    BuildS += T.BuildPlacementSeconds;
    InstallS += T.InstallSeconds;
    TracedSetupS += T.CallSeconds - T.Base.WallSeconds;
  }

  MetricSet &E = Rep.E2e;
  E.setMetric("setup_s", median(SetupSeconds));
  E.setMetric("ops_per_s", median(OpsPerS));
  E.setMetric("latency_ms_p50", quantile(WindowMs, 0.5));
  E.setMetric("latency_ms_tail", quantile(WindowMs, 0.9));
  Rep.Info = "latency unit=measured_window samples=" +
             std::to_string(WindowMs.size()) + " tail=p90";
  if (!Traced)
    return;

  MetricSet &L = Rep.Layers;
  setStmLayer(L, Telemetry);
  L.setMetric("shard.xshard_ratio",
              ratio(static_cast<double>(Telemetry.CrossShardCommits),
                    static_cast<double>(Telemetry.Commits)));
  L.setMetric("shard.prepare_retries_per_commit",
              ratio(static_cast<double>(Telemetry.PrepareRetries),
                    static_cast<double>(Telemetry.Commits)));
  L.setMetric("shard.steer.warmup.setup_share", ratio(WarmupS, TracedSetupS));
  L.setMetric("shard.steer.build_placement.setup_share",
              ratio(BuildS, TracedSetupS));
  L.setMetric("shard.steer.install.setup_share", ratio(InstallS, TracedSetupS));
  L.setMetric("trace.overhead_pct",
              (ratio(median(OpsPerS), median(TracedOpsPerS)) - 1.0) * 100.0);
}

//===----------------------------------------------------------------------===//
// --train: regenerate the pinned models
//===----------------------------------------------------------------------===//

/// Trains \p Stamp's two-thread model on the medium input, trying seed
/// bases 1000, 2000, ... and keeping the first model the analyzer accepts.
int trainModel(const Args &A, const std::string &Stamp) {
  std::unique_ptr<TlWorkload> Train =
      createStampWorkload(Stamp, SizeClass::Medium);
  for (uint64_t Base = 1000; Base <= 20000; Base += 1000) {
    Tsa Model;
    bool Verified = true;
    for (unsigned I = 0; I < ProfileRuns; ++I) {
      RunResult R = runWorkloadOnce(*Train, guidedRunnerConfig(true),
                                    Base + I, nullptr);
      Verified = Verified && R.Verified;
      Model.addRun(R.Tuples);
    }
    const AnalyzerReport Report = analyzeModel(Model, ModelAnalyzer);
    std::printf("train %s seed_base=%llu states=%zu guidance_metric=%.2f%% "
                "accepted=%d\n",
                Stamp.c_str(), static_cast<unsigned long long>(Base),
                Report.NumStates, Report.GuidanceMetricPercent,
                Report.Optimizable && Verified);
    if (!Report.Optimizable || !Verified)
      continue;
    const std::string Path = pinnedModelPath(A, Stamp);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << modelToJson(Model) << '\n';
    Out.close();
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", Path.c_str());
    return 0;
  }
  std::fprintf(stderr, "error: no seed base gave %s an accepted model\n",
               Stamp.c_str());
  return 1;
}

const char *const WorkloadNames[] = {"guided-genome", "guided-vacation",
                                     "ycsb-a-btree", "shard-xshard-steered"};

} // namespace

int main(int Argc, char **Argv) {
  const OptionSet Cli(
      "gstm_bench",
      "End-to-end guided-STM benchmark: one workload, two worker threads.",
      {{"workload", "NAME",
        "guided-genome | guided-vacation | ycsb-a-btree | "
        "shard-xshard-steered"},
       {"seed", "N", "input seed (default 1)"},
       {"seconds", "S", "measured time per run (default 20)"},
       {"trace", "FILE",
        "traced run: print per-layer metrics, write spans to FILE"},
       {"smoke", "", "tiny inputs, for the ctest smoke"},
       {"train", "",
        "regenerate the pinned models (all, or --workload's)"},
       {"models", "DIR", "pinned model directory"},
       {"git-sha", "SHA", "commit to record in the provenance line"}});
  const Options Opts = Cli.parseOrExit(Argc, Argv);

  Args A;
  A.Workload = Opts.getString("workload", "");
  A.Seed = static_cast<uint64_t>(Opts.getInt("seed", 1));
  A.Seconds = Opts.getDouble("seconds", 20);
  A.TraceFile = Opts.getString("trace", "");
  A.Smoke = Opts.getBool("smoke", false);
  A.ModelsDir = Opts.getString("models", GSTM_E2E_MODELS_DIR);
  A.GitSha = Opts.getString("git-sha", "unknown");

  if (Opts.getBool("train", false)) {
    int Rc = 0;
    for (const char *Stamp : {"genome", "vacation"})
      if (A.Workload.empty() || A.Workload == std::string("guided-") + Stamp)
        Rc = std::max(Rc, trainModel(A, Stamp));
    return Rc;
  }

  if (std::find(std::begin(WorkloadNames), std::end(WorkloadNames),
                A.Workload) == std::end(WorkloadNames) ||
      !(A.Seconds >= 0)) {
    std::fprintf(stderr, "error: --workload must name one of the four "
                         "workloads and --seconds must be >= 0\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  printProvenance(A);
  Report Rep;
  if (A.Workload == "guided-genome" || A.Workload == "guided-vacation") {
    if (!runGuided(A, A.Workload.substr(std::strlen("guided-")), Rep))
      return 3;
  } else if (A.Workload == "ycsb-a-btree") {
    runYcsb(A, Rep);
  } else {
    runShard(A, Rep);
  }
  std::string Error;
  if (!A.TraceFile.empty() && !Rep.Spans.writeChromeTrace(A.TraceFile, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  std::printf("info %s\n", Rep.Info.c_str());
  Rep.E2e.printMetrics();
  if (!A.TraceFile.empty())
    Rep.Layers.printMetrics();
  std::printf("result attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(Rep.Attempted),
              static_cast<unsigned long long>(Rep.Failed));
  return Rep.Failed == 0 ? 0 : 1;
}
