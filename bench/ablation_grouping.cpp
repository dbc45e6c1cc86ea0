//===- bench/ablation_grouping.cpp --------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Ablation of the abort-attribution design decision (DESIGN.md Sec. 5.1):
// the paper parses its transaction sequence by grouping each commit with
// the aborts logged before it (Sequence mode); our STM also records the
// *causal* committer of every abort (lock-owner identity / commit-ring
// version), enabling exact attribution (Causal mode). This bench runs
// each profiling seed twice, once per mode, builds one model from each
// mode's runs and compares state counts and guidance metrics.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "core/Runner.h"

#include <cstdio>

using namespace gstm;

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  unsigned Threads = Opts.ThreadCounts.front();
  printBanner("Ablation: sequence vs causal abort attribution",
              "DESIGN.md Sec. 5.1 (model sensitivity to attribution)",
              Opts);
  std::printf("%-10s  %18s  %18s\n", "benchmark", "sequence st/metric",
              "causal st/metric");

  for (const std::string &Name : Opts.Workloads) {
    auto Workload = createStampWorkload(Name, Opts.TrainSize);
    Tsa SequenceModel, CausalModel;

    for (unsigned Run = 0; Run < Opts.ProfileRuns; ++Run) {
      // The same seed run twice, once per grouping mode. The runs are
      // not the same traffic (profiling is destructive), so small count
      // differences are run noise.
      RunnerConfig RC;
      RC.Threads = Threads;
      RC.GroupMode = Grouping::Sequence;
      RunResult R1 = runWorkloadOnce(*Workload, RC,
                                     Opts.Seed * 100 + Run, nullptr);
      SequenceModel.addRun(R1.Tuples);
      RC.GroupMode = Grouping::Causal;
      RunResult R2 = runWorkloadOnce(*Workload, RC,
                                     Opts.Seed * 100 + Run, nullptr);
      CausalModel.addRun(R2.Tuples);
    }

    AnalyzerConfig AC;
    AC.Tfactor = Opts.Tfactor;
    AnalyzerReport Seq = analyzeModel(SequenceModel, AC);
    AnalyzerReport Cau = analyzeModel(CausalModel, AC);
    std::printf("%-10s  %9zu / %4.0f%%  %9zu / %4.0f%%\n", Name.c_str(),
                Seq.NumStates, Seq.GuidanceMetricPercent, Cau.NumStates,
                Cau.GuidanceMetricPercent);
    std::fflush(stdout);
  }
  std::printf("\nNote: the two parses see different runs of the same "
              "seeds (profiling is destructive), so small count\n"
              "differences are run noise; large ones are attributional.\n");
  return 0;
}
