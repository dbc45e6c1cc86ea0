//===- examples/reservation_system.cpp - vacation-style booking demo -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// A travel-booking service on the transactional containers: red-black
// tree tables for cars/flights/rooms, per-customer reservation lists, and
// concurrent clients issuing composite booking transactions — the
// workload shape that motivates vacation in the paper's evaluation. The
// demo runs the service default and guided and reports the variance of
// per-client latency tails.
//
//   $ ./reservation_system [--threads=6] [--ops=300] [--size=small]
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/Experiment.h"
#include "stamp/SizeClass.h"
#include "stamp/Vacation.h"

#include <cstdio>

using namespace gstm;

int main(int Argc, char **Argv) {
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "runs a vacation-style booking service default and "
                      "guided",
                {{"threads", "N", "clients, in [1, 64] (default 6)"},
                 {"ops", "N",
                  "operations per client, at least 1 (default: the size's)"},
                 {"size", "CLASS",
                  "input: small|medium|large (default small)"}});
  Options Opts = Cli.parseOrExit(Argc, Argv);
  unsigned Threads = parseThreadCounts(Opts, Tool, "6").front();
  SizeClass Size = parseSizeClass(Opts.getString("size", "small"));

  VacationParams Params = VacationParams::forSize(Size);
  Params.OpsPerThread = parseCount(Opts, Tool, "ops", Params.OpsPerThread);

  std::printf("reservation system: %u tables x %u assets, %u customers, "
              "%u clients x %u ops\n\n",
              3u, Params.NumRelations, Params.NumCustomers, Threads,
              Params.OpsPerThread);

  VacationWorkload Service(Params);
  ExperimentConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.ProfileRuns = 4;
  Cfg.MeasureRuns = 6;
  Cfg.ForceGuided = true;
  ExperimentResult R = runExperiment(Service, Cfg);

  std::printf("model: %zu states, guidance metric %.0f%% (%s)\n",
              R.Model.numStates(), R.Report.GuidanceMetricPercent,
              R.Report.Optimizable ? "guidable" : "weak model");
  std::printf("correctness: default %s, guided %s (seat conservation + "
              "red-black invariants)\n",
              R.Default.AllVerified ? "ok" : "FAILED",
              R.Guided.AllVerified ? "ok" : "FAILED");
  std::printf("aborts:     %lu -> %lu (ratio %.2f -> %.2f)\n",
              R.Default.TotalAborts, R.Guided.TotalAborts,
              R.defaultAbortRatio(), R.guidedAbortRatio());
  std::printf("distinct transactional states: %zu -> %zu (-%.0f%%)\n",
              R.Default.DistinctStates, R.Guided.DistinctStates,
              R.nondeterminismReductionPercent());
  std::printf("abort-tail metric improvement: %+.0f%% (mean over "
              "clients)\n",
              R.meanTailImprovementPercent());
  std::printf("service time: %.3fs -> %.3fs (%.2fx)\n",
              R.Default.MeanWallSeconds, R.Guided.MeanWallSeconds,
              R.slowdownFactor());
  return 0;
}
