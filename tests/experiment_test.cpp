//===- tests/experiment_test.cpp - end-to-end pipeline tests ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Integration tests of the full paper pipeline: profile -> model ->
// analyze -> guided execution, on real workloads. These assert the
// *mechanics* (model non-empty, guidance engages, progress guaranteed,
// metrics computable) rather than specific performance numbers, which are
// inherently noisy.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"

#include "core/Analyzer.h"
#include "core/Runner.h"
#include "core/Trace.h"
#include "core/Tsa.h"
#include "stamp/Kmeans.h"
#include "stamp/Registry.h"
#include "stamp/Ssca2.h"
#include "support/SplitMix64.h"
#include "support/Stats.h"
#include "synquake/Experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <sched.h>

using namespace gstm;

namespace {
ExperimentConfig quickConfig(unsigned Threads = 4) {
  ExperimentConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.ProfileRuns = 3;
  Cfg.MeasureRuns = 3;
  return Cfg;
}
} // namespace

TEST(ExperimentTest, KmeansPipelineEndToEnd) {
  KmeansWorkload W(KmeansParams::forSize(SizeClass::Small));
  ExperimentResult R = runExperiment(W, quickConfig());

  EXPECT_GT(R.Model.numStates(), 0u);
  EXPECT_GT(R.Model.numTransitions(), 0u);
  EXPECT_TRUE(R.Default.AllVerified);
  EXPECT_GT(R.Default.DistinctStates, 0u);
  ASSERT_EQ(R.Default.ThreadTimes.size(), 4u);
  for (const RunningStat &S : R.Default.ThreadTimes)
    EXPECT_EQ(S.count(), 3u);

  if (R.GuidedRan) {
    EXPECT_TRUE(R.Guided.AllVerified)
        << "guidance must never break workload correctness";
    EXPECT_EQ(R.varianceImprovementPercent().size(), 4u);
    EXPECT_GT(R.Guided.Guide.GateChecks, 0u);
  }
}

TEST(ExperimentTest, GuidedRunsRemainCorrectAcrossWorkloads) {
  // Force guidance on every workload (even analyzer-rejected ones) and
  // check correctness is preserved — guidance may only delay threads,
  // never change results.
  for (const char *Name : {"genome", "intruder", "vacation"}) {
    auto W = createStampWorkload(Name, SizeClass::Small);
    ExperimentConfig Cfg = quickConfig(4);
    Cfg.ProfileRuns = 2;
    Cfg.MeasureRuns = 2;
    Cfg.ForceGuided = true;
    ExperimentResult R = runExperiment(*W, Cfg);
    EXPECT_TRUE(R.GuidedRan);
    EXPECT_TRUE(R.Guided.AllVerified) << Name;
    EXPECT_TRUE(R.Default.AllVerified) << Name;
  }
}

TEST(ExperimentTest, Ssca2ModelRejectedByAnalyzer) {
  // The paper's analyzer rejects ssca2 (Table I / Figure 8): with
  // near-zero aborts its model degenerates to a handful of
  // singleton-commit states, "eliminating any scope for guidance". Only
  // the *verdict* is asserted on the live run: the state count itself
  // wobbles with host load (overload adds rare abort tuples — observed up
  // to ~37 at 8 threads), which made any live numeric bound flaky. The
  // tight state-count bound lives in Ssca2ShapedTraceStaysWithinStateBound
  // below, on a fixed-seed trace where it is deterministic.
  Ssca2Workload W(Ssca2Params::forSize(SizeClass::Small));
  ExperimentConfig Cfg = quickConfig(8);
  ExperimentResult R = runExperiment(W, Cfg);
  EXPECT_FALSE(R.Report.Optimizable);
  EXPECT_FALSE(R.GuidedRan);
}

TEST(ExperimentTest, Ssca2ShapedTraceStaysWithinStateBound) {
  // Deterministic re-statement of the 4 * Threads bound the live ssca2
  // test used to carry: a fixed-seed trace with ssca2's measured shape —
  // every thread committing at its one hot site with a conflict rate
  // under 0.5% (workloads_test measures ssca2-small at < 0.5%) — must
  // collapse to about one singleton tuple per thread. If groupTuples or
  // the Tsa ever start minting extra states from such a trace (e.g. by
  // splitting tuples on read-only commits), this catches it without any
  // scheduling noise.
  constexpr unsigned Threads = 8;
  constexpr unsigned CommitsPerThread = 500;
  SplitMix64 Rng(0x55ca2);
  std::vector<TraceEvent> Trace;
  uint64_t Seq = 0;
  for (unsigned Round = 0; Round < CommitsPerThread; ++Round)
    for (unsigned T = 0; T < Threads; ++T) {
      // ~0.3% of commits are preceded by a conflict abort on a
      // neighbouring thread, matching the measured near-zero abort rate.
      if (Rng.nextDouble() < 0.003) {
        TraceEvent A{};
        A.Seq = Seq++;
        A.Thread = static_cast<ThreadId>((T + 1) % Threads);
        A.Tx = 0;
        A.IsCommit = false;
        Trace.push_back(A);
      }
      TraceEvent C{};
      C.Seq = Seq++;
      C.Thread = static_cast<ThreadId>(T);
      C.Tx = 0;
      C.IsCommit = true;
      Trace.push_back(C);
    }

  Tsa Model;
  Model.addRun(groupTuples(Trace, Grouping::Sequence));
  EXPECT_LT(Model.numStates(), 4u * Threads)
      << "ssca2-shaped trace should be ~one singleton tuple per thread";

  // And the analyzer must reject it, as runExperiment does at this
  // thread count (Experiment.cpp defaults MinStates to 6 * Threads).
  AnalyzerConfig AC;
  AC.MinStates = 6 * Threads;
  EXPECT_FALSE(analyzeModel(Model, AC).Optimizable);
}

TEST(ExperimentTest, KmeansModelAcceptedByAnalyzer) {
  // kmeans is the paper's poster child for guidance (metric 26%/37%).
  KmeansWorkload W(KmeansParams::forSize(SizeClass::Small));
  ExperimentConfig Cfg = quickConfig(8);
  Cfg.ProfileRuns = 5;
  ExperimentResult R = runExperiment(W, Cfg);
  EXPECT_LT(R.Report.GuidanceMetricPercent, 60.0);
}

TEST(ExperimentTest, AnalyzerTakesConfigTfactorAndSixStatesPerThread) {
  // Both pipelines analyze with the experiment's Tfactor, the paper's 50%
  // rejection threshold and at least 6 states per thread (the ssca2
  // bound above).
  KmeansWorkload W(KmeansParams::forSize(SizeClass::Small));
  ExperimentConfig Cfg = quickConfig(4);
  Cfg.ProfileRuns = 2;
  Cfg.MeasureRuns = 0;
  Cfg.Tfactor = 1.0;
  ExperimentResult Cold = runExperiment(W, Cfg);
  ExperimentResult Warm = runExperimentWithModel(W, Cfg, Cold.Model);

  AnalyzerReport Want =
      analyzeModel(Cold.Model, {.Tfactor = 1.0, .MinStates = 24});
  ASSERT_NE(analyzeModel(Cold.Model, {.Tfactor = 4.0}).GuidanceMetricPercent,
            Want.GuidanceMetricPercent)
      << "the model must tell the two Tfactors apart";
  for (const ExperimentResult *R : {&Cold, &Warm}) {
    EXPECT_DOUBLE_EQ(R->Report.GuidanceMetricPercent,
                     Want.GuidanceMetricPercent);
    EXPECT_EQ(R->Report.NumStates, Want.NumStates);
    EXPECT_EQ(R->Report.Optimizable,
              Want.NumStates >= 24 && Want.GuidanceMetricPercent < 50.0);
  }
}

TEST(ExperimentTest, TrainOnMediumMeasureOnSmall) {
  // The paper trains on medium inputs and evaluates on others; the
  // two-workload overload supports exactly that.
  KmeansWorkload Train(KmeansParams::forSize(SizeClass::Medium));
  KmeansWorkload Test(KmeansParams::forSize(SizeClass::Small));
  ExperimentConfig Cfg = quickConfig(4);
  Cfg.ProfileRuns = 2;
  Cfg.MeasureRuns = 2;
  Cfg.ForceGuided = true;
  ExperimentResult R = runExperiment(Train, Test, Cfg);
  EXPECT_TRUE(R.Default.AllVerified);
  EXPECT_TRUE(R.Guided.AllVerified);
  // Cross-input states exist that training never saw; the controller
  // must have passed through unknown states without stalling.
  EXPECT_GT(R.Guided.Guide.UnknownStates + R.Guided.Guide.KnownStates, 0u);
}

TEST(ExperimentTest, MetricsComputeSaneValues) {
  KmeansWorkload W(KmeansParams::forSize(SizeClass::Small));
  ExperimentConfig Cfg = quickConfig(4);
  Cfg.ForceGuided = true;
  ExperimentResult R = runExperiment(W, Cfg);

  double Slowdown = R.slowdownFactor();
  EXPECT_GT(Slowdown, 0.0);
  EXPECT_LT(Slowdown, 100.0);
  double Nd = R.nondeterminismReductionPercent();
  EXPECT_LE(Nd, 100.0);
  EXPECT_EQ(R.tailImprovementPercent().size(), 4u);
  EXPECT_GE(R.defaultAbortRatio(), 0.0);
  EXPECT_LE(R.defaultAbortRatio(), 1.0);
}

//===----------------------------------------------------------------------===//
// Forced scheduler yields (DESIGN §2, substitution 1)
//===----------------------------------------------------------------------===//

TEST(RunnerTest, ForcedYieldsOnlyWhenWorkersOutnumberCpus) {
  for (unsigned Cpus : {1u, 2u, 3u, 8u, 64u}) {
    for (unsigned Threads = 1; Threads <= Cpus; ++Threads)
      EXPECT_EQ(forcedYieldShift(ExperimentYieldShift, Threads, Cpus), 0u)
          << Threads << " workers on " << Cpus << " CPUs";
    for (unsigned Threads = Cpus + 1; Threads <= Cpus + 16; ++Threads)
      EXPECT_EQ(forcedYieldShift(ExperimentYieldShift, Threads, Cpus),
                ExperimentYieldShift)
          << Threads << " workers on " << Cpus << " CPUs";
  }
  // A configuration without forced yields stays without them.
  EXPECT_EQ(forcedYieldShift(0, 16, 2), 0u);
}

namespace {
/// Records whether the engine runWorkloadOnce built for it had an access
/// observer (the forced-yield perturber) attached when setup ran.
class YieldProbe : public TlWorkload {
public:
  bool Attached = false;
  std::string name() const override { return "yield-probe"; }
  unsigned numTxSites() const override { return 1; }
  void setup(Tl2Stm &Stm, unsigned, uint64_t) override {
    Attached = Stm.accessObserver() != nullptr;
  }
  void threadBody(Tl2Stm &, ThreadId) override {}
};
} // namespace

TEST(RunnerTest, RunsYieldOnlyWhenWorkersOutnumberUsableCpus) {
  unsigned Cpus = usableCpus();
  YieldProbe Probe;
  RunnerConfig RC;
  for (unsigned Threads : {1u, Cpus, Cpus + 1}) {
    if (Threads > StatsShardCount)
      continue;
    RC.Threads = Threads;
    runWorkloadOnce(Probe, RC, 1, nullptr);
    EXPECT_EQ(Probe.Attached, Threads > Cpus)
        << Threads << " workers on " << Cpus << " CPUs";
  }
  // A run configured without yields never gets them.
  RC.YieldShift = 0;
  RC.Threads =
      static_cast<unsigned>(std::min<size_t>(Cpus + 1, StatsShardCount));
  runWorkloadOnce(Probe, RC, 1, nullptr);
  EXPECT_FALSE(Probe.Attached);
}

TEST(RunnerTest, UsableCpusIsTheAffinityMaskSize) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(Set), &Set), 0);
  EXPECT_GE(usableCpus(), 1u);
  EXPECT_EQ(usableCpus(), static_cast<unsigned>(CPU_COUNT(&Set)));
}

//===----------------------------------------------------------------------===//
// Derived metrics on hand-built sides (every paper driver row reads these)
//===----------------------------------------------------------------------===//

namespace {
/// A histogram holding one commit after each of \p Counts aborts.
AbortHistogram histOf(std::initializer_list<uint64_t> Counts) {
  AbortHistogram H;
  for (uint64_t C : Counts)
    H.add(C);
  return H;
}
} // namespace

TEST(ExperimentResultTest, VarianceImprovementIsPerThreadStddevReduction) {
  ExperimentResult R;
  R.Default.ThreadTimes.resize(2);
  R.Guided.ThreadTimes.resize(2);
  // Thread 0: the guided spread is half the default spread.
  for (double X : {1.0, 3.0})
    R.Default.ThreadTimes[0].add(X);
  for (double X : {1.0, 2.0})
    R.Guided.ThreadTimes[0].add(X);
  // Thread 1: the guided spread doubles (a Figure 8 style degradation).
  for (double X : {1.0, 2.0})
    R.Default.ThreadTimes[1].add(X);
  for (double X : {1.0, 3.0})
    R.Guided.ThreadTimes[1].add(X);
  std::vector<double> V = R.varianceImprovementPercent();
  ASSERT_EQ(V.size(), 2u);
  EXPECT_NEAR(V[0], 50.0, 1e-9);
  EXPECT_NEAR(V[1], -100.0, 1e-9);
}

TEST(ExperimentResultTest, MeanTailImprovementSkipsUndefinedThreads) {
  ExperimentResult R;
  // Tail metric = sum of j^2 over distinct abort counts j.
  R.Default.ThreadHists = {histOf({0, 3}), histOf({0}), histOf({0})};
  R.Guided.ThreadHists = {histOf({0, 1}), histOf({2}), histOf({0})};
  std::vector<double> T = R.tailImprovementPercent();
  ASSERT_EQ(T.size(), 3u);
  EXPECT_NEAR(T[0], 100.0 * 8.0 / 9.0, 1e-9);
  // A zero default tail against a non-zero guided one has no ratio.
  EXPECT_TRUE(std::isnan(T[1]));
  EXPECT_DOUBLE_EQ(T[2], 0.0);
  EXPECT_NEAR(R.meanTailImprovementPercent(), 100.0 * 4.0 / 9.0, 1e-9);
}

TEST(ExperimentResultTest, SideMaxAbortsIsTheLargestThreadMax) {
  SideAggregate Side;
  EXPECT_EQ(Side.maxAborts(), 0u);
  // The largest count sits on the middle thread, in a histogram whose
  // other entries are smaller, and an empty histogram counts as 0.
  Side.ThreadHists = {histOf({0, 4}), histOf({1, 68, 2}), AbortHistogram(),
                      histOf({7})};
  EXPECT_EQ(Side.maxAborts(), 68u);
}

TEST(ExperimentResultTest, NondeterminismReductionComparesDistinctStates) {
  ExperimentResult R;
  R.Default.DistinctStates = 40;
  R.Guided.DistinctStates = 10;
  EXPECT_DOUBLE_EQ(R.nondeterminismReductionPercent(), 75.0);
  R.Guided.DistinctStates = 60;
  EXPECT_DOUBLE_EQ(R.nondeterminismReductionPercent(), -50.0);
}

TEST(ExperimentResultTest, SlowdownIsGuidedOverDefaultWallTime) {
  ExperimentResult R;
  R.Default.MeanWallSeconds = 2.0;
  R.Guided.MeanWallSeconds = 3.0;
  EXPECT_DOUBLE_EQ(R.slowdownFactor(), 1.5);
  // No default wall time to compare against reads as no slowdown.
  R.Default.MeanWallSeconds = 0.0;
  EXPECT_DOUBLE_EQ(R.slowdownFactor(), 1.0);
}

TEST(ExperimentResultTest, AbortRatioIsAbortsOverAllAttempts) {
  ExperimentResult R;
  R.Default.TotalCommits = 75;
  R.Default.TotalAborts = 25;
  EXPECT_DOUBLE_EQ(R.defaultAbortRatio(), 0.25);
  // A side with no attempts (the guided side of a rejected model).
  EXPECT_DOUBLE_EQ(R.guidedAbortRatio(), 0.0);
}

TEST(SynQuakeExperimentTest, PipelineEndToEnd) {
  SynQuakeExperimentConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Game.NumPlayers = 48;
  Cfg.Game.Frames = 10;
  Cfg.Game.Quest = QuestPattern::Quadrants4;
  Cfg.TrainFrames = 10;
  Cfg.ProfileRunsPerQuest = 1;
  Cfg.MeasureRuns = 2;

  SynQuakeExperimentResult R = runSynQuakeExperiment(Cfg);
  EXPECT_GT(R.Model.numStates(), 0u);
  EXPECT_TRUE(R.Default.AllVerified);
  EXPECT_TRUE(R.Guided.AllVerified);
  EXPECT_EQ(R.Default.FrameStddev.count(), 2u);
  EXPECT_GT(R.Guided.Guide.GateChecks, 0u);
  double Slowdown = R.slowdownFactor();
  EXPECT_GT(Slowdown, 0.0);
  EXPECT_LT(Slowdown, 100.0);
}

TEST(SynQuakeExperimentTest, AnalyzerTakesConfigTfactor) {
  SynQuakeExperimentConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Game.NumPlayers = 48;
  Cfg.Game.Frames = 4;
  Cfg.Game.Quest = QuestPattern::Quadrants4;
  Cfg.TrainFrames = 10;
  Cfg.ProfileRunsPerQuest = 1;
  Cfg.MeasureRuns = 1;
  // A Tfactor this large counts nearly every successor as high
  // probability, far from the default 4. Tfactor 1 is not used: on a
  // loaded host the SynQuake model often has no successor between Pmax/4
  // and Pmax, so 1 and 4 give the same metric.
  Cfg.Tfactor = 1000.0;

  SynQuakeExperimentResult R = runSynQuakeExperiment(Cfg);
  AnalyzerReport Want = analyzeModel(R.Model, {.Tfactor = 1000.0});
  ASSERT_NE(analyzeModel(R.Model, {.Tfactor = 4.0}).GuidanceMetricPercent,
            Want.GuidanceMetricPercent)
      << "the model must tell the two Tfactors apart";
  EXPECT_DOUBLE_EQ(R.Report.GuidanceMetricPercent,
                   Want.GuidanceMetricPercent);
  EXPECT_EQ(R.Report.Optimizable, Want.Optimizable);
}
