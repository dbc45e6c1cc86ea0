//===- bench/ablation_contention.cpp ------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The paper's Sec. IX argument against contention managers: "CMs clearly
// compromise one thread over another which only leads to higher
// variance", whereas guided execution biases the *system path*, not a
// thread. This bench runs one benchmark default, under Polite / Karma /
// Greedy, and guided, and reports aborts, non-determinism (distinct TTS)
// and per-thread execution-time spread — the dimensions on which the
// approaches differ.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "core/GuidedPolicy.h"
#include "core/Runner.h"
#include "stm/Contention.h"

#include <cstdio>
#include <unordered_set>

using namespace gstm;

namespace {

struct SideStats {
  double MeanThreadStddev = 0;
  size_t DistinctStates = 0;
  uint64_t Aborts = 0;
  double MeanWall = 0;
};

SideStats measure(TlWorkload &Workload, unsigned Threads, unsigned Runs,
                  ContentionManager *Cm, const GuidedPolicy *Policy) {
  RunnerConfig RC;
  RC.Threads = Threads;
  RC.Cm = Cm;

  SideStats Out;
  std::vector<RunningStat> ThreadTimes(Threads);
  std::unordered_set<StateTuple, StateTupleHash> Distinct;
  double WallSum = 0;
  runWorkloadOnce(Workload, RC, 42, Policy); // warm-up
  for (unsigned Run = 0; Run < Runs; ++Run) {
    RunResult R = runWorkloadOnce(Workload, RC, 42, Policy);
    for (unsigned T = 0; T < Threads; ++T)
      ThreadTimes[T].add(R.ThreadSeconds[T]);
    for (const StateTuple &S : R.Tuples)
      Distinct.insert(S);
    Out.Aborts += R.Aborts;
    WallSum += R.WallSeconds;
  }
  Out.DistinctStates = Distinct.size();
  Out.MeanWall = WallSum / Runs;
  for (const RunningStat &S : ThreadTimes)
    Out.MeanThreadStddev += S.stddev() / Threads;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Raw;
  BenchOptions Opts = BenchOptions::parse(
      Argc, Argv,
      {{"workload", "NAME", "STAMP workload to run (default kmeans)"}},
      &Raw);
  std::string Name = Raw.getString("workload", "kmeans");
  unsigned Threads = Opts.ThreadCounts.front();
  unsigned Runs = Opts.MeasureRuns;
  printBanner("Ablation: guided execution vs contention managers",
              "paper Sec. IX (CMs bias threads; guidance biases paths)",
              Opts);
  std::printf("workload=%s threads=%u runs=%u\n\n", Name.c_str(), Threads,
              Runs);
  std::printf("%-8s  %10s  %12s  %15s  %9s\n", "policy", "aborts",
              "distinct-TTS", "thread-sd(avg)", "wall(s)");

  auto Train = createStampWorkload(Name, Opts.TrainSize);
  auto Test = createStampWorkload(Name, Opts.MeasureSize);
  if (!Train || !Test)
    return 1;

  // Model for the guided row.
  RunnerConfig ProfileRC;
  ProfileRC.Threads = Threads;
  Tsa Model;
  for (unsigned Run = 0; Run < Opts.ProfileRuns; ++Run)
    Model.addRun(
        runWorkloadOnce(*Train, ProfileRC, 1000 + Run, nullptr).Tuples);
  GuidedPolicy Policy(std::move(Model), Opts.Tfactor);

  auto PrintRow = [](const char *Label, const SideStats &S) {
    std::printf("%-8s  %10lu  %12zu  %13.6fs  %8.3fs\n", Label, S.Aborts,
                S.DistinctStates, S.MeanThreadStddev, S.MeanWall);
    std::fflush(stdout);
  };

  PrintRow("default",
           measure(*Test, Threads, Runs, nullptr, nullptr));
  for (const char *CmName : {"polite", "karma", "greedy"}) {
    auto Cm = createContentionManager(CmName);
    PrintRow(CmName, measure(*Test, Threads, Runs, Cm.get(), nullptr));
  }
  PrintRow("guided",
           measure(*Test, Threads, Runs, nullptr, &Policy));
  return 0;
}
