//===- bench/paper_synquake.cpp --------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's SynQuake evaluation (Sec. VIII): Table V and
// Figures 11 and 12. Each thread count runs one experiment per test quest
// (4quadrants, 4center_spread6), each trained on 4worst_case+4moving.
// Table V is the analyzer report of the 4quadrants experiment; Figures 11
// and 12 print the frame-time variance improvement, abort-ratio cut and
// slowdown of the two experiments.
//
//===----------------------------------------------------------------------===//

#include "bench/SynQuakeBench.h"
#include "synquake/Experiment.h"

#include <cstdio>

using namespace gstm;

namespace {

SynQuakeExperimentResult runQuest(const SynQuakeBenchOptions &Opts,
                                  unsigned Threads, QuestPattern TestQuest) {
  SynQuakeExperimentConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.Game.NumPlayers = Opts.Players;
  Cfg.Game.Frames = Opts.Frames;
  Cfg.Game.Quest = TestQuest;
  Cfg.TrainFrames = Opts.TrainFrames;
  Cfg.ProfileRunsPerQuest = Opts.ProfileRunsPerQuest;
  Cfg.MeasureRuns = Opts.MeasureRuns;
  Cfg.Tfactor = Opts.Tfactor;
  Cfg.ProfileSeedBase = Opts.Seed * 1000 + 11;
  Cfg.MeasureSeedBase = Opts.Seed * 1000 + 611;
  return runSynQuakeExperiment(Cfg);
}

/// Figures 11/12: one row per thread count with the three panels.
void printQuestFigure(const SynQuakeBenchOptions &Opts, const char *Title,
                      const char *PaperRef, QuestPattern Quest,
                      const std::vector<SynQuakeExperimentResult> &Results) {
  printSection(Title, PaperRef);
  std::printf("quest: %s, %u players, %u frames, trained on "
              "4worst_case+4moving\n\n",
              questPatternName(Quest), Opts.Players, Opts.Frames);
  std::printf("threads  frame-var improve  abort-ratio cut  slowdown  "
              "(frame stddev default -> guided, ms)\n");
  for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T) {
    const SynQuakeExperimentResult &R = Results[T];
    std::printf("%7u  %16.1f%%  %14.1f%%  %7.2fx  (%.3f -> %.3f)%s\n",
                Opts.ThreadCounts[T], R.frameVarianceImprovementPercent(),
                R.abortRatioReductionPercent(), R.slowdownFactor(),
                R.Default.FrameStddev.mean() * 1e3,
                R.Guided.FrameStddev.mean() * 1e3,
                R.Default.AllVerified && R.Guided.AllVerified
                    ? ""
                    : "  [VERIFY FAILED]");
  }
}

} // namespace

int main(int Argc, char **Argv) {
  SynQuakeBenchOptions Opts = SynQuakeBenchOptions::parse(Argc, Argv);
  std::printf("== SynQuake evaluation: Table V and Figures 11-12 ==\n");
  std::printf("   reproduces: paper Sec. VIII, one experiment per test "
              "quest and thread count\n");
  printForcedYields(Opts.ThreadCounts);

  std::vector<SynQuakeExperimentResult> Quadrants, Spread;
  for (unsigned T : Opts.ThreadCounts) {
    std::fprintf(stderr, "running SynQuake at %u threads\n", T);
    Quadrants.push_back(runQuest(Opts, T, QuestPattern::Quadrants4));
    Spread.push_back(runQuest(Opts, T, QuestPattern::CenterSpread6));
  }

  printSection("Table V: SynQuake guidance metric (lower is better)",
               "paper Table V (22% @8t, 19% @16t)");
  std::printf("threads  metric  states  verdict\n");
  for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T) {
    const AnalyzerReport &Report = Quadrants[T].Report;
    std::printf("%7u  %5.0f%%  %6zu  %s\n", Opts.ThreadCounts[T],
                Report.GuidanceMetricPercent, Report.NumStates,
                Report.Optimizable ? "guide" : "reject");
  }

  printQuestFigure(Opts, "Figure 11: SynQuake quest 4quadrants",
                   "paper Fig. 11 (variance cut, abort cut, speedup at 8t)",
                   QuestPattern::Quadrants4, Quadrants);
  printQuestFigure(Opts, "Figure 12: SynQuake quest 4center_spread6",
                   "paper Fig. 12 (max 64.7% variance cut at 16t)",
                   QuestPattern::CenterSpread6, Spread);
  return 0;
}
