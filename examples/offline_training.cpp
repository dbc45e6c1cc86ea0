//===- examples/offline_training.cpp - train once, guide forever ------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The paper's deployment model is offline: the artifact's `mcmc_data`
// option writes a `state_data` model file that later `model` runs load.
// This example mirrors that workflow across process "stages":
//
//   $ ./offline_training --stage=train --model=/tmp/kmeans.tsa
//   $ ./offline_training --stage=guide --model=/tmp/kmeans.tsa
//
// Without --stage both stages run back to back. Inspect the produced
// file with `tools/model_ctl info`.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/Analyzer.h"
#include "core/GuidedPolicy.h"
#include "core/Runner.h"
#include "model/Serialize.h"
#include "stamp/Registry.h"

#include <cstdio>

using namespace gstm;

static int train(const std::string &Workload, const std::string &Path,
                 unsigned Threads, unsigned Runs) {
  auto W = createStampWorkload(Workload, SizeClass::Medium);
  if (!W)
    return 1;
  std::printf("training %s on medium input, %u runs x %u threads...\n",
              Workload.c_str(), Runs, Threads);

  RunnerConfig RC;
  RC.Threads = Threads;
  Tsa Model;
  for (unsigned Run = 0; Run < Runs; ++Run)
    Model.addRun(runWorkloadOnce(*W, RC, 100 + Run, nullptr).Tuples);

  AnalyzerReport Report = analyzeModel(Model);
  std::printf("model: %zu states, guidance metric %.0f%% (%s)\n",
              Model.numStates(), Report.GuidanceMetricPercent,
              Report.Optimizable ? "guidable" : "weak");
  std::string Detail;
  if (saveModel(Model, Path, &Detail) != ModelIoStatus::Ok) {
    std::fprintf(stderr, "error: cannot write '%s': %s\n", Path.c_str(),
                 Detail.c_str());
    return 1;
  }
  std::printf("saved to %s (%zu bytes in memory)\n", Path.c_str(),
              Model.approxSizeBytes());
  return 0;
}

static int guide(const std::string &Workload, const std::string &Path,
                 unsigned Threads, unsigned Runs) {
  ModelLoadResult Loaded = loadModel(Path);
  if (!Loaded.ok()) {
    std::fprintf(stderr,
                 "error: cannot load '%s' (%s) — run --stage=train "
                 "first\n",
                 Path.c_str(), modelIoStatusName(Loaded.Status));
    return 1;
  }
  std::optional<Tsa> &Model = Loaded.Model;
  auto W = createStampWorkload(Workload, SizeClass::Large);
  if (!W)
    return 1;
  std::printf("loaded model with %zu states; guiding %s on large "
              "input...\n",
              Model->numStates(), Workload.c_str());

  GuidedPolicy Policy(std::move(*Model), /*Tfactor=*/4.0);
  RunnerConfig RC;
  RC.Threads = Threads;

  uint64_t DefaultAborts = 0, GuidedAborts = 0;
  for (unsigned Run = 0; Run < Runs; ++Run) {
    DefaultAborts += runWorkloadOnce(*W, RC, 42, nullptr).Aborts;
    GuidedAborts += runWorkloadOnce(*W, RC, 42, &Policy).Aborts;
  }
  std::printf("aborts over %u runs: default %lu, guided %lu\n", Runs,
              DefaultAborts, GuidedAborts);
  return 0;
}

int main(int Argc, char **Argv) {
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "trains a model file, then guides from it",
                {{"stage", "STAGE", "train|guide|both (default both)"},
                 {"workload", "NAME", "STAMP port (default kmeans)"},
                 {"model", "FILE", "model file (default /tmp/gstm_model.tsa)"},
                 {"threads", "N", "worker threads, in [1, 64] (default 8)"},
                 {"runs", "N", "runs per stage, at least 1 (default 5)"}});
  Options Opts = Cli.parseOrExit(Argc, Argv);
  std::string Stage = Opts.getString("stage", "both");
  std::string Workload = Opts.getString("workload", "kmeans");
  std::string Path = Opts.getString("model", "/tmp/gstm_model.tsa");
  unsigned Threads = parseThreadCounts(Opts, Tool, "8").front();
  unsigned Runs = parseCount(Opts, Tool, "runs", 5);

  if (Stage == "train")
    return train(Workload, Path, Threads, Runs);
  if (Stage == "guide")
    return guide(Workload, Path, Threads, Runs);
  int Rc = train(Workload, Path, Threads, Runs);
  if (Rc != 0)
    return Rc;
  std::printf("\n");
  return guide(Workload, Path, Threads, Runs);
}
