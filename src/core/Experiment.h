//===- core/Experiment.h - Full pipeline: profile/model/analyze/guide ----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's four-phase framework (Fig. 1) end to end:
///
///   profile runs -> model generation -> model analysis -> guided runs
///                                              |
///                                       (reject: report only)
///
/// plus the paired *default* measurement runs against which variance,
/// non-determinism, abort tails and slowdown are compared. The result
/// object computes every derived metric the paper reports so each bench
/// binary only formats rows.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_EXPERIMENT_H
#define GSTM_CORE_EXPERIMENT_H

#include "core/Analyzer.h"
#include "core/GuidedPolicy.h"
#include "core/Runner.h"

#include <vector>

namespace gstm {

/// Configuration of one full experiment.
struct ExperimentConfig {
  unsigned Threads = 8;
  /// Paper: model built from the Tseq of 20 runs; scaled down by default
  /// so the suite fits a small machine. Raise with --runs in the benches.
  unsigned ProfileRuns = 5;
  /// Paper: readings averaged over 20 runs.
  unsigned MeasureRuns = 7;
  double Tfactor = 4.0;
  uint64_t ProfileSeedBase = 1000;
  uint64_t MeasureSeedBase = 5000;
  /// Run the guided side even when the analyzer rejects the model (used
  /// to reproduce Figure 8, where guiding ssca2 anyway *degrades* it).
  bool ForceGuided = false;
};

/// Aggregated measurements of one side (default or guided).
struct SideAggregate {
  /// Per-thread execution-time samples across runs.
  std::vector<RunningStat> ThreadTimes;
  /// Per-thread abort histograms merged across runs.
  std::vector<AbortHistogram> ThreadHists;
  /// Distinct thread transactional states across all runs — the paper's
  /// non-determinism measure.
  size_t DistinctStates = 0;
  double MeanWallSeconds = 0.0;
  uint64_t TotalCommits = 0;
  uint64_t TotalAborts = 0;
  /// Sharded telemetry merged across all measurement runs of this side
  /// (TotalCommits/TotalAborts above equal its Commits/Aborts).
  StatsSnapshot Telemetry;
  GuideStats Guide;
  bool AllVerified = true;
};

/// Outcome of a full experiment.
struct ExperimentResult {
  Tsa Model;
  AnalyzerReport Report;
  SideAggregate Default;
  SideAggregate Guided;
  /// False when the analyzer rejected the model and ForceGuided was off;
  /// Guided is then empty.
  bool GuidedRan = false;
  /// Transactions committed during the profiling phase. Zero for
  /// warm-started experiments (runExperimentWithModel) — the acceptance
  /// signal that a pretrained model really skipped profiling.
  uint64_t ProfileCommits = 0;
  /// Number of profiling runs executed (0 when warm-started).
  unsigned ProfileRunsExecuted = 0;

  /// Per-thread % reduction of execution-time standard deviation
  /// (Figures 4 and 6; negative = degradation, Figure 8a/8c).
  std::vector<double> varianceImprovementPercent() const;

  /// Per-thread % improvement of the abort-tail metric (Table IV).
  std::vector<double> tailImprovementPercent() const;
  double meanTailImprovementPercent() const;

  /// % reduction in distinct states (Figure 9).
  double nondeterminismReductionPercent() const;

  /// Guided mean wall time / default mean wall time (Figure 10; > 1 means
  /// guided is slower).
  double slowdownFactor() const;

  /// Abort ratio (aborts / (commits + aborts)) per side; reduction is
  /// reported for SynQuake-style figures.
  double defaultAbortRatio() const;
  double guidedAbortRatio() const;
};

/// Runs the full pipeline. \p ProfileWorkload provides the training input
/// (the paper trains on medium inputs); \p MeasureWorkload provides the
/// evaluation input. They may be the same object.
ExperimentResult runExperiment(TlWorkload &ProfileWorkload,
                               TlWorkload &MeasureWorkload,
                               const ExperimentConfig &Config);

/// Convenience overload: same workload for training and evaluation.
ExperimentResult runExperiment(TlWorkload &Workload,
                               const ExperimentConfig &Config);

/// Warm-start pipeline: analysis and measurement against a pretrained
/// model (typically read from a model file — see model/Serialize.h). The
/// profiling phase is skipped entirely; Result.ProfileCommits == 0 and
/// Result.ProfileRunsExecuted == 0 certify that no profiling
/// transactions were executed.
ExperimentResult runExperimentWithModel(TlWorkload &MeasureWorkload,
                                        const ExperimentConfig &Config,
                                        Tsa Model);

} // namespace gstm

#endif // GSTM_CORE_EXPERIMENT_H
