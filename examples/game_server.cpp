//===- examples/game_server.cpp - SynQuake game-server demo ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The paper's motivating application: a multiplayer game server whose
// frame times must stay predictable. Runs the SynQuake simulation on the
// LibTM object-based STM, trains the model on the attract-everyone
// quests, then shows per-frame timing for a test quest with and without
// guidance.
//
//   $ ./game_server [--threads=4] [--players=300] [--frames=48]
//                   [--quest=4quadrants]
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "synquake/Experiment.h"

#include <cstdio>

using namespace gstm;

int main(int Argc, char **Argv) {
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "runs the SynQuake game server default and guided",
                {{"threads", "N", "server threads, in [1, 64] (default 4)"},
                 {"players", "N", "players, at least 1 (default 300)"},
                 {"frames", "N", "measured frames, at least 1 (default 48)"},
                 {"quest", "NAME", "test quest (default 4quadrants)"}});
  Options Opts = Cli.parseOrExit(Argc, Argv);

  SynQuakeExperimentConfig Cfg;
  Cfg.Threads = parseThreadCounts(Opts, Tool, "4").front();
  Cfg.Game.NumPlayers = Opts.getInt("players", 300, 1, INT64_MAX);
  Cfg.Game.Frames = Opts.getInt("frames", 48, 1, INT64_MAX);
  Cfg.Game.Quest = Opts.getEnum("quest", "4quadrants", questPatternFromName,
                                "4worst_case, 4moving, 4quadrants or "
                                "4center_spread6");
  Cfg.TrainFrames = 24;
  Cfg.ProfileRunsPerQuest = 2;
  Cfg.MeasureRuns = 4;

  std::printf("game server: %u players, %u frames, quest %s, %u server "
              "threads\n",
              Cfg.Game.NumPlayers, Cfg.Game.Frames,
              questPatternName(Cfg.Game.Quest), Cfg.Threads);
  std::printf("training the commit model on 4worst_case + 4moving...\n\n");

  SynQuakeExperimentResult R = runSynQuakeExperiment(Cfg);

  std::printf("model: %zu states, guidance metric %.0f%%\n",
              R.Model.numStates(), R.Report.GuidanceMetricPercent);
  std::printf("world consistency: default %s, guided %s\n",
              R.Default.AllVerified ? "ok" : "FAILED",
              R.Guided.AllVerified ? "ok" : "FAILED");
  std::printf("\n                 default     guided\n");
  std::printf("frame time      %7.3fms  %7.3fms\n",
              R.Default.FrameMean.mean() * 1e3,
              R.Guided.FrameMean.mean() * 1e3);
  std::printf("frame jitter    %7.3fms  %7.3fms  (%+.1f%%)\n",
              R.Default.FrameStddev.mean() * 1e3,
              R.Guided.FrameStddev.mean() * 1e3,
              R.frameVarianceImprovementPercent());
  std::printf("abort ratio     %7.2f    %7.2f    (cut %.1f%%)\n",
              R.Default.abortRatio(), R.Guided.abortRatio(),
              R.abortRatioReductionPercent());
  std::printf("total time      %7.3fs   %7.3fs   (%.2fx)\n",
              R.Default.TotalSeconds.mean(), R.Guided.TotalSeconds.mean(),
              R.slowdownFactor());
  return 0;
}
