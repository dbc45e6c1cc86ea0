//===- core/Experiment.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

using namespace gstm;

namespace {

/// Accumulator for one side's measurement runs.
struct SideCollector {
  explicit SideCollector(unsigned Threads) {
    Agg.ThreadTimes.resize(Threads);
    Agg.ThreadHists.resize(Threads);
  }

  void add(const RunResult &R) {
    for (size_t T = 0; T < Agg.ThreadTimes.size(); ++T) {
      Agg.ThreadTimes[T].add(R.ThreadSeconds[T]);
      if (T < R.ThreadHists.size())
        Agg.ThreadHists[T].merge(R.ThreadHists[T]);
    }
    for (const StateTuple &S : R.Tuples)
      Distinct.insert(S);
    WallSum += R.WallSeconds;
    ++Runs;
    Agg.TotalCommits += R.Commits;
    Agg.TotalAborts += R.Aborts;
    Agg.Telemetry.merge(R.Telemetry);
    Agg.Guide.merge(R.Guide);
    Agg.AllVerified = Agg.AllVerified && R.Verified;
  }

  SideAggregate finish() {
    Agg.DistinctStates = Distinct.size();
    Agg.MeanWallSeconds = Runs ? WallSum / Runs : 0.0;
    return std::move(Agg);
  }

  SideAggregate Agg;
  std::unordered_set<StateTuple, StateTupleHash> Distinct;
  double WallSum = 0.0;
  unsigned Runs = 0;
};

/// Measures the default and (optionally) guided sides with *interleaved*
/// runs of the *same* input.
///
/// Same input: the paper's variance is the run-to-run spread of identical
/// work caused purely by speculation non-determinism; varying the input
/// would measure input sensitivity instead. Interleaved: slow drift of
/// the host (frequency scaling, co-tenants, allocator state) then affects
/// both sides equally instead of biasing whichever side ran last.
void measureSides(TlWorkload &Workload, const ExperimentConfig &Config,
                  const GuidedPolicy *Policy, SideAggregate &DefaultOut,
                  SideAggregate &GuidedOut) {
  RunnerConfig RC;
  RC.Threads = Config.Threads;

  // Warm-up pass (cold caches / first-touch page faults would otherwise
  // land entirely in the first measured run).
  if (Config.MeasureRuns > 0)
    runWorkloadOnce(Workload, RC, Config.MeasureSeedBase, nullptr);

  SideCollector Default(Config.Threads);
  SideCollector Guided(Config.Threads);
  for (unsigned Run = 0; Run < Config.MeasureRuns; ++Run) {
    Default.add(
        runWorkloadOnce(Workload, RC, Config.MeasureSeedBase, nullptr));
    if (Policy)
      Guided.add(
          runWorkloadOnce(Workload, RC, Config.MeasureSeedBase, Policy));
  }
  DefaultOut = Default.finish();
  GuidedOut = Guided.finish();
}

/// Phases 3+4 shared by the cold (profile-first) and warm-start
/// pipelines: analyze whatever model \p Result carries, then measure.
void analyzeAndMeasure(TlWorkload &MeasureWorkload,
                       const ExperimentConfig &Config,
                       ExperimentResult &Result) {
  // Phase 3: analyze. A model made only of singleton-commit tuples (the
  // ssca2 shape — about one state per thread per site plus a few rare
  // abort tuples) carries no abort structure worth guiding, hence the
  // bound of 6 states per thread.
  Result.Report = analyzeModel(
      Result.Model,
      {.Tfactor = Config.Tfactor, .MinStates = 6 * Config.Threads});

  // Phase 4: measurement — default always, guided unless the analyzer
  // said "non-optimizable" (ForceGuided overrides, for Figure 8).
  if (Result.Report.Optimizable || Config.ForceGuided) {
    GuidedPolicy Policy(Result.Model, Config.Tfactor);
    measureSides(MeasureWorkload, Config, &Policy, Result.Default,
                 Result.Guided);
    Result.GuidedRan = true;
  } else {
    measureSides(MeasureWorkload, Config, /*Policy=*/nullptr,
                 Result.Default, Result.Guided);
  }
}

} // namespace

ExperimentResult gstm::runExperiment(TlWorkload &ProfileWorkload,
                                     TlWorkload &MeasureWorkload,
                                     const ExperimentConfig &Config) {
  ExperimentResult Result;

  // Phase 1+2: profile and build the model (paper Fig. 1 left half).
  RunnerConfig RC;
  RC.Threads = Config.Threads;
  for (unsigned Run = 0; Run < Config.ProfileRuns; ++Run) {
    RunResult R = runWorkloadOnce(ProfileWorkload, RC,
                                  Config.ProfileSeedBase + Run,
                                  /*Policy=*/nullptr);
    Result.Model.addRun(R.Tuples);
    Result.ProfileCommits += R.Commits;
    ++Result.ProfileRunsExecuted;
  }

  analyzeAndMeasure(MeasureWorkload, Config, Result);
  return Result;
}

ExperimentResult gstm::runExperimentWithModel(TlWorkload &MeasureWorkload,
                                              const ExperimentConfig &Config,
                                              Tsa Model) {
  ExperimentResult Result;
  // Warm start: the model arrives pretrained (typically loaded from a
  // model file), so the profiling phase is skipped outright —
  // ProfileCommits stays zero, which tests use to prove no profiling
  // transactions ran.
  Result.Model = std::move(Model);
  analyzeAndMeasure(MeasureWorkload, Config, Result);
  return Result;
}

ExperimentResult gstm::runExperiment(TlWorkload &Workload,
                                     const ExperimentConfig &Config) {
  return runExperiment(Workload, Workload, Config);
}

uint64_t SideAggregate::maxAborts() const {
  uint64_t Max = 0;
  for (const AbortHistogram &H : ThreadHists)
    Max = std::max(Max, H.maxAborts());
  return Max;
}

std::vector<double> ExperimentResult::varianceImprovementPercent() const {
  std::vector<double> Out;
  size_t N = Default.ThreadTimes.size();
  Out.reserve(N);
  for (size_t T = 0; T < N; ++T) {
    double Base = Default.ThreadTimes[T].stddev();
    double Opt =
        T < Guided.ThreadTimes.size() ? Guided.ThreadTimes[T].stddev() : 0.0;
    Out.push_back(percentImprovement(Base, Opt));
  }
  return Out;
}

std::vector<double> ExperimentResult::tailImprovementPercent() const {
  std::vector<double> Out;
  size_t N = Default.ThreadHists.size();
  Out.reserve(N);
  for (size_t T = 0; T < N; ++T) {
    double Base = Default.ThreadHists[T].tailMetric();
    double Opt =
        T < Guided.ThreadHists.size() ? Guided.ThreadHists[T].tailMetric()
                                      : 0.0;
    Out.push_back(percentImprovement(Base, Opt));
  }
  return Out;
}

double ExperimentResult::meanTailImprovementPercent() const {
  std::vector<double> Per = tailImprovementPercent();
  // percentImprovement is NaN for an undefined ratio (zero baseline,
  // non-zero optimized); average only the defined entries.
  double Sum = 0.0;
  size_t Defined = 0;
  for (double V : Per) {
    if (std::isnan(V))
      continue;
    Sum += V;
    ++Defined;
  }
  if (Defined == 0)
    return 0.0;
  return Sum / static_cast<double>(Defined);
}

double ExperimentResult::nondeterminismReductionPercent() const {
  return percentImprovement(static_cast<double>(Default.DistinctStates),
                            static_cast<double>(Guided.DistinctStates));
}

double ExperimentResult::slowdownFactor() const {
  if (Default.MeanWallSeconds == 0.0)
    return 1.0;
  return Guided.MeanWallSeconds / Default.MeanWallSeconds;
}

static double abortRatio(const SideAggregate &Side) {
  uint64_t Total = Side.TotalCommits + Side.TotalAborts;
  if (Total == 0)
    return 0.0;
  return static_cast<double>(Side.TotalAborts) / static_cast<double>(Total);
}

double ExperimentResult::defaultAbortRatio() const {
  return abortRatio(Default);
}

double ExperimentResult::guidedAbortRatio() const {
  return abortRatio(Guided);
}
