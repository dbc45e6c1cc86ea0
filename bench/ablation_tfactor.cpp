//===- bench/ablation_tfactor.cpp ---------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's Sec. VI claim: "By experimenting with Tfactor
// values of between 1 to 10, we found that Tfactor value of 4 strikes a
// balance." A low Tfactor admits too few transitions (over-restriction,
// more forced releases and slowdown); a high one admits low-probability
// paths (less variance/tail benefit). Sweeps Tfactor on one benchmark.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include <cstdio>

using namespace gstm;

int main(int Argc, char **Argv) {
  Options Raw;
  BenchOptions Opts = BenchOptions::parse(
      Argc, Argv,
      {{"workload", "NAME", "STAMP workload to sweep (default kmeans)"}},
      &Raw);
  std::string Name = Raw.getString("workload", "kmeans");
  checkStampWorkload(Raw, "workload", Name);
  unsigned Threads = Opts.ThreadCounts.front();
  printBanner("Ablation: Tfactor sweep (paper Sec. VI: 4 balances)",
              "paper Sec. VI", Opts);
  std::printf("workload=%s threads=%u\n\n", Name.c_str(), Threads);
  std::printf("tfactor  ND-cut   tail-cut  slowdown  holds  forced  "
              "all-held  allowed-out-degree\n");

  for (double Tfactor : {1.0, 2.0, 4.0, 6.0, 10.0}) {
    BenchOptions Sweep = Opts;
    Sweep.Tfactor = Tfactor;
    ExperimentResult R = runStampExperiment(Name, Sweep, Threads);
    std::printf("%7.1f  %5.1f%%  %7.1f%%  %7.2fx  %5lu  %6lu  %8lu  %18.2f\n",
                Tfactor, R.nondeterminismReductionPercent(),
                R.meanTailImprovementPercent(), R.slowdownFactor(),
                R.Guided.Guide.Holds, R.Guided.Guide.ForcedReleases,
                R.Guided.Guide.AllHeldReleases,
                R.Report.MeanGuidedOutDegree);
    std::fflush(stdout);
  }
  return 0;
}
