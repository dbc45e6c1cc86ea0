//===- examples/variance_lab.cpp - explore STM non-determinism -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// An interactive-ish lab for the paper's *quantification* side: run any
// STAMP port repeatedly, print the thread-transactional-state census
// (the non-determinism measure), the per-thread abort histograms, and a
// render of the hottest states with their transition probabilities —
// i.e. what the model generation phase actually sees.
//
//   $ ./variance_lab [--workload=kmeans] [--threads=4] [--runs=5]
//                    [--size=small] [--states=8]
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/Runner.h"
#include "core/Tsa.h"
#include "stamp/Registry.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

using namespace gstm;

int main(int Argc, char **Argv) {
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "censuses the thread-transactional states of repeated "
                      "STAMP runs",
                {{"workload", "NAME", "STAMP port (default kmeans)"},
                 {"threads", "N", "worker threads, in [1, 64] (default 4)"},
                 {"runs", "N",
                  "runs of the same input, at least 1 (default 5)"},
                 {"size", "CLASS",
                  "input: small|medium|large (default small)"},
                 {"states", "N",
                  "hottest states shown, at least 1 (default 8)"}});
  Options Opts = Cli.parseOrExit(Argc, Argv);
  std::string Name = Opts.getString("workload", "kmeans");
  unsigned Threads = parseThreadCounts(Opts, Tool, "4").front();
  unsigned Runs = Opts.getInt("runs", 5, 1, INT64_MAX);
  unsigned ShowStates = Opts.getInt("states", 8, 1, INT64_MAX);
  SizeClass Size =
      Opts.getEnum("size", "small", sizeClassFromName, SizeClassNames);

  auto Workload = createStampWorkload(Name, Size);
  if (!Workload) {
    std::fprintf(stderr, "unknown workload '%s'; choose from:", Name.c_str());
    for (const std::string &N : stampWorkloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::printf("variance lab: %s (%s), %u threads, %u runs of the same "
              "input\n\n",
              Name.c_str(), sizeClassName(Size), Threads, Runs);

  Tsa Model;
  std::unordered_set<StateTuple, StateTupleHash> Distinct;
  std::vector<AbortHistogram> Hists(Threads);
  RunnerConfig Cfg;
  Cfg.Threads = Threads;

  for (unsigned Run = 0; Run < Runs; ++Run) {
    RunResult R = runWorkloadOnce(*Workload, Cfg, /*Seed=*/7, nullptr);
    for (const StateTuple &S : R.Tuples)
      Distinct.insert(S);
    Model.addRun(R.Tuples);
    for (unsigned T = 0; T < Threads; ++T)
      Hists[T].merge(R.ThreadHists[T]);
    std::printf("run %u: %lu commits, %lu aborts, %zu tuples, verified=%s\n",
                Run, R.Commits, R.Aborts, R.Tuples.size(),
                R.Verified ? "yes" : "NO");
  }

  std::printf("\nnon-determinism: %zu distinct thread transactional "
              "states across %u identical-input runs\n",
              Distinct.size(), Runs);

  std::printf("\nper-thread abort histograms (aborts:frequency):\n");
  for (unsigned T = 0; T < Threads; ++T) {
    std::printf("  t%u:", T);
    for (const auto &[Aborts, Freq] : Hists[T].buckets())
      std::printf(" %lu:%lu", Aborts, Freq);
    std::printf("   (tail metric %.0f)\n", Hists[T].tailMetric());
  }

  // The hottest states, rendered in the paper's notation with their most
  // probable successors — a textual version of the paper's Figure 3.
  std::printf("\nhottest states (paper notation, like Fig. 3):\n");
  std::vector<std::pair<uint64_t, StateId>> ByTraffic;
  for (StateId S = 0; S < Model.numStates(); ++S)
    ByTraffic.push_back({Model.outFrequency(S), S});
  std::sort(ByTraffic.rbegin(), ByTraffic.rend());
  for (unsigned I = 0; I < ShowStates && I < ByTraffic.size(); ++I) {
    StateId S = ByTraffic[I].second;
    std::printf("  %s  (seen %lu times)\n", Model.state(S).format().c_str(),
                Model.outFrequency(S));
    unsigned Shown = 0;
    for (const TsaEdge &E : Model.successors(S)) {
      if (++Shown > 3)
        break;
      std::printf("     -%.3f-> %s\n", E.Probability,
                  Model.state(E.Dest).format().c_str());
    }
  }
  return 0;
}
