//===- bench/ablation_warmstart.cpp -------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Ablation of the model lifecycle (DESIGN.md Sec. 4f): the paper's
// deployment trains offline and reuses the model, while a naive
// reproduction re-profiles at every invocation. This bench quantifies
// what reusing a saved model file buys: for each workload it runs
//
//   inline  - profile + measure in one process (runExperiment), the cost
//             every invocation pays without a saved model
//   warm    - train once, round-trip the model through a file on disk
//             (saveModel/loadModel), then measure from the loaded model
//             with *zero* profiling transactions (runExperimentWithModel)
//
// and reports the profiling transactions eliminated, the wall-time spent
// per phase, and the guided-side quality (distinct-TTS reduction) of
// both paths — which must agree, since the loaded model is byte-exact.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "model/Serialize.h"
#include "support/Timer.h"

#include <cstdio>
#include <filesystem>

using namespace gstm;

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  unsigned Threads = Opts.ThreadCounts.front();
  printBanner("Ablation: warm-started vs inline-profiled guidance",
              "DESIGN.md Sec. 4f (model lifecycle)", Opts);

  std::string ModelPath =
      (std::filesystem::temp_directory_path() / "gstm_warmstart.tsa")
          .string();
  std::printf("model file: %s\n\n", ModelPath.c_str());
  std::printf("%-10s  %13s  %13s  %11s  %11s  %9s\n", "benchmark",
              "inline prof-tx", "warm prof-tx", "inline ndet%",
              "warm ndet%", "warm save");

  const ExperimentConfig EC = experimentConfig(Opts, Threads);
  for (const std::string &Name : Opts.Workloads) {
    // Inline path: the whole pipeline, profiling included.
    auto TrainW = createStampWorkload(Name, Opts.TrainSize);
    auto MeasureW = createStampWorkload(Name, Opts.MeasureSize);
    if (!TrainW || !MeasureW)
      continue;
    Timer InlineTimer;
    ExperimentResult Inline = runExperiment(*TrainW, *MeasureW, EC);
    double InlineSecs = InlineTimer.elapsedSeconds();

    // Warm path: persist the trained model, reload it from the file and
    // measure without any profiling phase.
    std::string Detail;
    if (saveModel(Inline.Model, ModelPath, &Detail) != ModelIoStatus::Ok) {
      std::fprintf(stderr, "model save failed for %s: %s\n", Name.c_str(),
                   Detail.c_str());
      continue;
    }
    ModelLoadResult Loaded = loadModel(ModelPath);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "model load failed for %s: %s\n", Name.c_str(),
                   Loaded.Detail.c_str());
      continue;
    }
    Timer WarmTimer;
    ExperimentResult Warm =
        runExperimentWithModel(*MeasureW, EC, std::move(*Loaded.Model));
    double WarmSecs = WarmTimer.elapsedSeconds();

    std::printf("%-10s  %14lu  %13lu  %10.1f%%  %10.1f%%  %8.1f%%\n",
                Name.c_str(),
                static_cast<unsigned long>(Inline.ProfileCommits),
                static_cast<unsigned long>(Warm.ProfileCommits),
                Inline.nondeterminismReductionPercent(),
                Warm.nondeterminismReductionPercent(),
                InlineSecs > 0.0
                    ? 100.0 * (InlineSecs - WarmSecs) / InlineSecs
                    : 0.0);
    std::fflush(stdout);
  }
  std::printf("\nwarm prof-tx is zero by construction: the measurement "
              "process never profiles.\nndet%% columns differ only by "
              "run noise — the saved model is byte-exact.\n");
  std::error_code Ignored;
  std::filesystem::remove(ModelPath, Ignored);
  return 0;
}
