//===- bench/SynQuakeBench.h - SynQuake paper-driver options --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options of the SynQuake paper driver (bench/paper_synquake: Table V,
/// Figures 11 and 12). Paper setup: 1000 players on a 1024x1024 map,
/// trained on 4worst_case and 4moving, tested on 4quadrants and
/// 4center_spread6.
/// Defaults are scaled down (players/frames) to finish quickly; raise
/// --players / --frames toward the paper's numbers as time allows.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_SYNQUAKEBENCH_H
#define GSTM_BENCH_SYNQUAKEBENCH_H

#include "bench/Common.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace gstm {

struct SynQuakeBenchOptions {
  std::vector<unsigned> ThreadCounts = {8, 16};
  uint32_t Players = 1000;
  uint32_t Frames = 64;
  uint32_t TrainFrames = 24;
  unsigned ProfileRunsPerQuest = 2;
  unsigned MeasureRuns = 6;
  double Tfactor = 4.0;
  uint64_t Seed = 1;

  /// `--help` prints the usage and exits 0; an undeclared key, a thread
  /// count outside [1, StatsShardCount], a count below 1, a Tfactor
  /// below 1 or a value that does not parse prints a message and exits 2
  /// (the checks of BenchOptions).
  static SynQuakeBenchOptions parse(int Argc, char **Argv) {
    const std::string Tool = toolName(Argv[0]);
    OptionSet Cli(
        Tool, "reproduces the paper's SynQuake evaluation",
        {
            {"threads", "LIST",
             "comma-separated thread counts, each in [1, 64] (default 8,16)"},
            {"players", "N", "players, at least 1 (default 1000)"},
            {"frames", "N", "measured frames, at least 1 (default 64)"},
            {"train-frames", "N",
             "frames per training run, at least 1 (default 24)"},
            {"profile-runs", "N",
             "training runs per training quest, at least 1 (default 2)"},
            {"runs", "N", "measurement runs per side, at least 1 (default 6)"},
            {"tfactor", "F", "Ph/Tfactor threshold, at least 1 (default 4)"},
            {"seed", "N", "base seed (default 1)"},
        });
    Options Opts = Cli.parseOrExit(Argc, Argv);
    SynQuakeBenchOptions B;
    B.ThreadCounts = parseThreadCounts(Opts, Tool);
    B.Players = Opts.getInt("players", B.Players, 1, INT64_MAX);
    B.Frames = Opts.getInt("frames", B.Frames, 1, INT64_MAX);
    B.TrainFrames = Opts.getInt("train-frames", B.TrainFrames, 1, INT64_MAX);
    B.ProfileRunsPerQuest =
        Opts.getInt("profile-runs", B.ProfileRunsPerQuest, 1, INT64_MAX);
    B.MeasureRuns = Opts.getInt("runs", B.MeasureRuns, 1, INT64_MAX);
    B.Tfactor = Opts.getDouble("tfactor", B.Tfactor, 1, HUGE_VAL);
    B.Seed = static_cast<uint64_t>(Opts.getInt("seed", 1));
    return B;
  }
};

} // namespace gstm

#endif // GSTM_BENCH_SYNQUAKEBENCH_H
