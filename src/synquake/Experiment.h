//===- synquake/Experiment.h - SynQuake guided-execution pipeline --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Sec. VIII experiment: train the thread-state-automaton
/// model on the 4worst_case and 4moving quests, validate it with the
/// analyzer (Table V), then compare default and guided execution on a
/// *different* quest (4quadrants or 4center_spread6), reporting frame-
/// rate variance improvement, abort-ratio reduction and slowdown
/// (Figures 11 and 12).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SYNQUAKE_EXPERIMENT_H
#define GSTM_SYNQUAKE_EXPERIMENT_H

#include "core/Analyzer.h"
#include "core/GuideController.h"
#include "core/Tsa.h"
#include "support/Stats.h"
#include "synquake/Game.h"

namespace gstm {

/// Configuration of one SynQuake experiment.
struct SynQuakeExperimentConfig {
  unsigned Threads = 8;
  /// Test-quest parameters; Frames is the measured frame count.
  SynQuakeParams Game;
  /// Frames per training run (paper: 1000 training vs 10000 testing;
  /// scaled down by default).
  uint32_t TrainFrames = 24;
  /// Training runs per training quest (4worst_case and 4moving).
  unsigned ProfileRunsPerQuest = 2;
  unsigned MeasureRuns = 5;
  double Tfactor = 4.0;
  /// Frames are barrier-synchronized and short, so a held thread delays
  /// the whole frame: the gate yields (on our yield-saturated substrate a
  /// yield returns in microseconds) instead of sleeping.
  GuideConfig Guide = {.MaxGateRetries = 8, .GateSleepMicros = 0};
  uint64_t ProfileSeedBase = 100;
  uint64_t MeasureSeedBase = 500;
};

/// Aggregates of one side (default or guided).
struct SynQuakeSide {
  /// Per-run standard deviation of frame processing time — the paper's
  /// frame-rate variance.
  RunningStat FrameStddev;
  /// Per-run mean frame processing time.
  RunningStat FrameMean;
  RunningStat TotalSeconds;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  GuideStats Guide;
  bool AllVerified = true;

  double abortRatio() const {
    uint64_t Total = Commits + Aborts;
    return Total ? static_cast<double>(Aborts) / Total : 0.0;
  }
};

/// Outcome of one SynQuake experiment.
struct SynQuakeExperimentResult {
  Tsa Model;
  AnalyzerReport Report;
  SynQuakeSide Default;
  SynQuakeSide Guided;

  /// % improvement in frame-time standard deviation (Fig. 11a / 12a).
  double frameVarianceImprovementPercent() const {
    return percentImprovement(Default.FrameStddev.mean(),
                              Guided.FrameStddev.mean());
  }
  /// % reduction in abort ratio (Fig. 11b / 12b).
  double abortRatioReductionPercent() const {
    return percentImprovement(Default.abortRatio(), Guided.abortRatio());
  }
  /// Guided / default total time (Fig. 11c / 12c; < 1 is a speedup).
  double slowdownFactor() const {
    double Base = Default.TotalSeconds.mean();
    return Base > 0 ? Guided.TotalSeconds.mean() / Base : 1.0;
  }
};

/// Runs the full train/analyze/measure pipeline for the test quest in
/// \p Config.Game.Quest.
SynQuakeExperimentResult
runSynQuakeExperiment(const SynQuakeExperimentConfig &Config);

} // namespace gstm

#endif // GSTM_SYNQUAKE_EXPERIMENT_H
