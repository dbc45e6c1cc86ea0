//===- bench/table4_tail_improvement.cpp -------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table IV: the average percentage improvement in the tail of
// the abort distribution (metric: sum of squared distinct abort counts,
// averaged over threads) of guided versus default execution. The paper
// reports large positive improvements everywhere except ssca2, whose
// abort count is inherently near zero (0% change).
//
// Ablation: --grouping=causal builds the model from causally attributed
// abort/commit tuples (via the STM's commit ring) instead of the default
// sequence grouping, quantifying how much precise attribution changes the
// model (DESIGN.md Sec. 5.1).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include <cstdio>

using namespace gstm;

int main(int Argc, char **Argv) {
  Options Raw;
  BenchOptions Opts = BenchOptions::parse(
      Argc, Argv,
      {{"grouping", "MODE",
        "tuple grouping: sequence|causal (default sequence)"}}, &Raw);
  bool Causal = Raw.getString("grouping", "sequence") == "causal";
  printBanner("Table IV: avg % improvement in abort-distribution tail",
              "paper Table IV (positive everywhere, 0 for ssca2)", Opts);
  if (Causal)
    std::printf("   (ablation: causal abort attribution)\n\n");

  std::printf("%-10s", "benchmark");
  for (unsigned T : Opts.ThreadCounts)
    std::printf("  %6u threads", T);
  std::printf("\n");

  for (const std::string &Name : Opts.Workloads) {
    std::printf("%-10s", Name.c_str());
    for (unsigned T : Opts.ThreadCounts) {
      auto Train = createStampWorkload(Name, Opts.TrainSize);
      auto Test = createStampWorkload(Name, Opts.MeasureSize);
      ExperimentConfig Cfg;
      Cfg.Threads = T;
      Cfg.ProfileRuns = Opts.ProfileRuns;
      Cfg.MeasureRuns = Opts.MeasureRuns;
      Cfg.Tfactor = Opts.Tfactor;
      Cfg.ForceGuided = true;
      Cfg.GroupMode = Causal ? Grouping::Causal : Grouping::Sequence;
      Cfg.ProfileSeedBase = Opts.Seed * 1000 + 1;
      Cfg.MeasureSeedBase = Opts.Seed * 1000 + 500;
      ExperimentResult R = runExperiment(*Train, *Test, Cfg);
      std::printf("  %13.0f%%", R.meanTailImprovementPercent());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
