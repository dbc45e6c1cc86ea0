//===- bench/paper_stamp.cpp -----------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's STAMP evaluation: Tables I, III and IV and
// Figures 3-10. Like the paper, it runs one experiment per (benchmark,
// thread count) — profiling runs, model, analyzer verdict, interleaved
// default and guided runs — and prints every table and figure from those
// same runs, so the sections of one report describe one set of runs.
// `--json-dir` writes one export per experiment.
//
// The tables and Figures 9/10 have one column per thread count. Figures
// 4/6 (per-thread variance) and 5/7 (abort tails) print one block per
// thread count: the paper's Figures 4/5 are the 8-thread blocks and 6/7
// the 16-thread ones. Figure 3 is the kmeans model at 8 threads, or at
// the first thread count when 8 is not among them.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include <algorithm>
#include <cstdio>

using namespace gstm;

namespace {

/// The experiments of one report: Results[W][T] ran Opts.Workloads[W] at
/// Opts.ThreadCounts[T].
using ResultGrid = std::vector<std::vector<ExperimentResult>>;

/// Position of \p Name in --workloads; Opts.Workloads.size() when absent.
size_t workloadIndex(const BenchOptions &Opts, const char *Name) {
  return std::find(Opts.Workloads.begin(), Opts.Workloads.end(), Name) -
         Opts.Workloads.begin();
}

/// Column headers "<label> @<T>t" for the per-thread-count tables, each
/// \p Width characters wide after its two-space separator.
void printColumns(const BenchOptions &Opts, const char *Label, int Width) {
  std::printf("%-10s", "benchmark");
  for (unsigned T : Opts.ThreadCounts)
    std::printf("  %*s @%2ut", Width - 5, Label, T);
  std::printf("\n");
}

/// Table I: the analyzer's guidance metric (lower is better), state count
/// and verdict.
void printTable1(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Table I: model analyzer guidance metric (lower is better)",
               "paper Table I (ssca2 rejected; all others guidable)");
  printColumns(Opts, "metric  states  verdict", 31);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (const ExperimentResult &R : Results[W])
      std::printf("  %13.0f%%  %6zu  %7s", R.Report.GuidanceMetricPercent,
                  R.Report.NumStates,
                  R.Report.Optimizable ? "guide" : "reject");
    std::printf("\n");
  }
}

/// Table III: model states and serialized size. Absolute counts depend on
/// run length; the ordering is the reproducible shape (ssca2 fewest,
/// intruder/yada most, more threads => more states).
void printTable3(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Table III: number of states in each model",
               "paper Table III (ssca2 fewest, intruder/yada most; "
               "more threads => more states)");
  printColumns(Opts, "states  model-bytes", 27);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (const ExperimentResult &R : Results[W])
      std::printf("  %14zu  %11zu", R.Model.numStates(),
                  R.Model.approxSizeBytes());
    std::printf("\n");
  }
}

/// Table IV: mean % improvement of the abort-tail metric (sum of squared
/// distinct abort counts, averaged over threads), with the most aborts
/// one transaction took on each side, so a cell one starved transaction
/// decides shows it. Cells of a rejected model print "-" when
/// --force-guided=0 skipped its guided side, as in Figures 9 and 10.
void printTable4(const BenchOptions &Opts, const ResultGrid &Results) {
  constexpr int Width = 26;
  printSection("Table IV: avg % improvement in abort-distribution tail",
               "paper Table IV (positive everywhere, 0 for ssca2)");
  std::printf("(max D→G: the most aborts one transaction took before it "
              "committed, default → guided)\n");
  printColumns(Opts, "improvement", Width);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (const ExperimentResult &R : Results[W]) {
      if (!R.GuidedRan) {
        std::printf("  %*s", Width, "-");
        continue;
      }
      char Cell[64];
      std::snprintf(Cell, sizeof(Cell), "%.0f%% (max %lu→%lu)",
                    R.meanTailImprovementPercent(), R.Default.maxAborts(),
                    R.Guided.maxAborts());
      // "→" takes three bytes for its one column.
      std::printf("  %*s", Width + 2, Cell);
    }
    std::printf("\n");
  }
}

/// Figure 3: the hottest contended kmeans state (one with aborts in its
/// tuple, like the paper's {<a6>, <b7>}) and its successor probabilities.
/// The state identities depend on scheduling; the shape — likely
/// successors are per-thread commit states, with a steep probability
/// skew — is the reproducible part.
void printFigure3(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Figure 3: kmeans thread-state-automaton excerpt",
               "paper Fig. 3 (hot state with skewed successor "
               "probabilities)");
  size_t W = workloadIndex(Opts, "kmeans");
  if (W == Opts.Workloads.size()) {
    std::printf("kmeans is not among --workloads\n");
    return;
  }
  auto Eight =
      std::find(Opts.ThreadCounts.begin(), Opts.ThreadCounts.end(), 8u);
  size_t T = Eight == Opts.ThreadCounts.end()
                 ? 0
                 : Eight - Opts.ThreadCounts.begin();
  unsigned Threads = Opts.ThreadCounts[T];

  const Tsa &Model = Results[W][T].Model;
  StateId Hot = UnknownState;
  uint64_t HotTraffic = 0;
  for (StateId S = 0; S < Model.numStates(); ++S)
    if (!Model.state(S).Aborts.empty() &&
        Model.outFrequency(S) > HotTraffic) {
      Hot = S;
      HotTraffic = Model.outFrequency(S);
    }
  if (Hot == UnknownState) {
    std::printf("no contended state found at %u threads; raise "
                "--profile-runs\n",
                Threads);
    return;
  }

  std::printf("%u threads, current state: %s   (observed %lu times)\n\n",
              Threads, Model.state(Hot).format().c_str(), HotTraffic);
  std::printf("%-30s %s\n", "destination", "probability");
  unsigned Shown = 0;
  for (const TsaEdge &E : Model.successors(Hot)) {
    if (++Shown > 10)
      break;
    std::printf("%-30s %.3f\n", Model.state(E.Dest).format().c_str(),
                E.Probability);
  }
  auto Kept = highProbabilitySuccessors(Model, Hot, Opts.Tfactor);
  std::printf("\nwith Tfactor=%.1f guided execution keeps the top %zu of "
              "%zu destinations\n",
              Opts.Tfactor, Kept.size(), Model.successors(Hot).size());
}

/// Figures 4/6: per-thread % execution-time variance improvement of guided
/// over default execution, one row per benchmark (ssca2 is Figure 8).
void printVarianceFigure(const BenchOptions &Opts, const ResultGrid &Results,
                         size_t T) {
  unsigned Threads = Opts.ThreadCounts[T];
  printSection("Figures 4/6: per-thread execution-time variance "
               "improvement, " +
                   std::to_string(Threads) + " threads",
               "paper Figs. 4 @8t and 6 @16t (positive for every thread, "
               "all benchmarks except ssca2; up to 74% @16t)");
  std::printf("benchmark   per-thread %% stddev(exec time) improvement "
              "(t0..t%u)\n",
              Threads - 1);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    const ExperimentResult &R = Results[W][T];
    if (Opts.Workloads[W] == "ssca2" || !R.GuidedRan)
      continue;
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (double V : R.varianceImprovementPercent())
      std::printf(" %+6.1f", V);
    std::printf("   (ND -%.0f%%, slowdown %.2fx)\n",
                R.nondeterminismReductionPercent(), R.slowdownFactor());
  }
}

/// Figures 5/7: the abort distribution's tail, default (D) versus guided
/// (G), for one thread per benchmark, picked serially from thread 0 at 8
/// threads and from thread 8 at 16 (ssca2 is Figure 8). Buckets list
/// `aborts:frequency`; the guided tail should be visibly shorter.
void printAbortTailFigure(const BenchOptions &Opts,
                          const ResultGrid &Results, size_t T) {
  unsigned Threads = Opts.ThreadCounts[T];
  printSection("Figures 5/7: abort-distribution tails (default D vs "
               "guided G), " +
                   std::to_string(Threads) + " threads",
               "paper Figs. 5 @8t and 7 @16t (guided tail visibly "
               "shorter)");
  unsigned Pick = Threads >= 16 ? 8 : 0;
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    const ExperimentResult &R = Results[W][T];
    if (Opts.Workloads[W] == "ssca2" || !R.GuidedRan)
      continue;
    unsigned Thread = Pick % Threads;
    Pick = (Pick + 1) % Threads;

    const AbortHistogram &Def = R.Default.ThreadHists[Thread];
    const AbortHistogram &Gui = R.Guided.ThreadHists[Thread];
    std::printf("%s thread %u  (tail metric: default %.0f, guided %.0f, "
                "max aborts: %lu -> %lu)\n",
                Opts.Workloads[W].c_str(), Thread, Def.tailMetric(),
                Gui.tailMetric(), Def.maxAborts(), Gui.maxAborts());
    std::printf("  D:");
    for (const auto &[Aborts, Freq] : Def.buckets())
      std::printf(" %lu:%lu", Aborts, Freq);
    std::printf("\n  G:");
    for (const auto &[Aborts, Freq] : Gui.buckets())
      std::printf(" %lu:%lu", Aborts, Freq);
    std::printf("\n");
  }
}

/// Figure 8: ssca2 guided anyway. Its aborts are innately near zero, so
/// the model carries no guidance signal and guiding it is pure overhead:
/// variance degrades and the abort counts stay put. The analyzer verdict
/// that would have prevented this comes first.
void printFigure8(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Figure 8: ssca2 guided anyway (degrades; aborts unchanged)",
               "paper Fig. 8 (negative improvement, unchanged abort tail)");
  size_t W = workloadIndex(Opts, "ssca2");
  if (W == Opts.Workloads.size()) {
    std::printf("ssca2 is not among --workloads\n");
    return;
  }
  for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T) {
    const ExperimentResult &R = Results[W][T];
    if (T > 0)
      std::printf("\n");
    std::printf("%u threads: analyzer verdict = %s (states=%zu, "
                "metric=%.0f%%)\n",
                Opts.ThreadCounts[T],
                R.Report.Optimizable ? "guide" : "reject",
                R.Report.NumStates, R.Report.GuidanceMetricPercent);
    if (!R.GuidedRan) {
      std::printf("  guided side skipped (--force-guided=0)\n");
      continue;
    }
    std::printf("  per-thread %% variance improvement:");
    for (double V : R.varianceImprovementPercent())
      std::printf(" %+5.1f", V);
    std::printf("\n  abort totals: default=%lu guided=%lu (near zero and "
                "unchanged)\n",
                R.Default.TotalAborts, R.Guided.TotalAborts);
    std::printf("  slowdown: %.2fx\n", R.slowdownFactor());
  }
}

/// Figure 9: % reduction in non-determinism, the number of distinct
/// thread transactional states exercised (ssca2 is Figure 8).
void printFigure9(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Figure 9: % reduction in non-determinism (distinct TTS "
               "count)",
               "paper Fig. 9 (positive reduction everywhere; up to 44% "
               "@8t, 24% @16t)");
  printColumns(Opts, "default -> guided (cut)", 31);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    if (Opts.Workloads[W] == "ssca2")
      continue;
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (const ExperimentResult &R : Results[W])
      if (R.GuidedRan)
        std::printf("  %10zu -> %6zu  (%6.1f%%)", R.Default.DistinctStates,
                    R.Guided.DistinctStates,
                    R.nondeterminismReductionPercent());
      else
        std::printf("  %31s", "-");
    std::printf("\n");
  }
}

/// Figure 10: guided over default mean wall time. On a host where threads
/// time-share cores, withholding a thread cannot cost parallelism, only
/// save aborted work, so guided runs can come out faster than default, as
/// the paper's SynQuake runs do (35% speedup at 8 threads).
void printFigure10(const BenchOptions &Opts, const ResultGrid &Results) {
  printSection("Figure 10: slowdown of guided vs default execution",
               "paper Fig. 10 (avg 3.5% @8t, 19.2% @16t)");
  printColumns(Opts, "slowdown", 14);
  std::vector<double> Sums(Opts.ThreadCounts.size(), 0.0);
  std::vector<unsigned> Rows(Opts.ThreadCounts.size(), 0);
  for (size_t W = 0; W < Opts.Workloads.size(); ++W) {
    std::printf("%-10s", Opts.Workloads[W].c_str());
    for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T) {
      const ExperimentResult &R = Results[W][T];
      if (!R.GuidedRan) {
        std::printf("  %14s", "-");
        continue;
      }
      Sums[T] += R.slowdownFactor();
      ++Rows[T];
      std::printf("  %13.2fx", R.slowdownFactor());
    }
    std::printf("\n");
  }
  std::printf("%-10s", "average");
  for (size_t T = 0; T < Sums.size(); ++T)
    if (Rows[T] > 0)
      std::printf("  %13.2fx", Sums[T] / Rows[T]);
    else
      std::printf("  %14s", "-");
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  printBanner("STAMP evaluation: Tables I, III, IV and Figures 3-10",
              "paper Sec. VII, one experiment per benchmark and thread "
              "count",
              Opts);
  printForcedYields(Opts.ThreadCounts);

  ResultGrid Results(Opts.Workloads.size());
  for (size_t W = 0; W < Opts.Workloads.size(); ++W)
    for (unsigned T : Opts.ThreadCounts) {
      std::fprintf(stderr, "running %s at %u threads\n",
                   Opts.Workloads[W].c_str(), T);
      Results[W].push_back(runStampExperiment(Opts.Workloads[W], Opts, T));
    }

  printTable1(Opts, Results);
  printTable3(Opts, Results);
  printTable4(Opts, Results);
  printFigure3(Opts, Results);
  for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T)
    printVarianceFigure(Opts, Results, T);
  for (size_t T = 0; T < Opts.ThreadCounts.size(); ++T)
    printAbortTailFigure(Opts, Results, T);
  printFigure8(Opts, Results);
  printFigure9(Opts, Results);
  printFigure10(Opts, Results);
  return 0;
}
