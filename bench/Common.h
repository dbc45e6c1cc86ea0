//===- bench/Common.h - Shared bench-harness plumbing ---------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared configuration and execution helpers for the STAMP paper driver
/// (paper_stamp) and the ablation benches. Every binary accepts (and
/// rejects any other key with exit 2, unless it declares it):
///   --threads=8,16      thread counts to evaluate (paper: 8 and 16)
///   --profile-runs=N    training runs (paper: 20)
///   --runs=N            measurement runs per side (paper: 20)
///   --tfactor=F         the Ph/Tfactor threshold knob, >= 1 (paper: 4)
///   --train-size=medium --size=large   input classes (paper Fig. 1:
///                       train on medium, guide on large)
///   --workloads=a,b,c   subset of the STAMP ports
///   --seed=N            base seed
///   --force-guided=0    skip the guided side when the analyzer rejects
///   --json-dir=DIR      also write per-experiment JSON exports there
///
/// A value a binary cannot use (a count below 1 or above 2^32 - 1, text
/// where a number belongs, an unknown size class or workload) exits 2
/// with a message naming its key; support/Options does the parsing and
/// range checks.
///
/// Defaults are scaled down for a small machine; raise
/// --runs/--profile-runs toward the paper's 20 for tighter statistics.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_COMMON_H
#define GSTM_BENCH_COMMON_H

#include "core/Experiment.h"
#include "stamp/Registry.h"
#include "support/Options.h"

#include <string>
#include <vector>

namespace gstm {

/// `--threads` of the paper binaries and the examples: comma-separated
/// counts, each in [1, StatsShardCount] (more threads than stats shards
/// would alias single-writer shards); \p Default (the paper's 8,16 unless
/// given) when absent. Prints a message naming \p Tool and exits 2 on
/// anything else.
std::vector<unsigned> parseThreadCounts(const Options &Opts,
                                        const std::string &Tool,
                                        const std::string &Default = "8,16");

/// Exits 2 through \p Opts, naming \p Key, unless \p Name is one of
/// stampWorkloadNames().
void checkStampWorkload(const Options &Opts, const std::string &Key,
                        const std::string &Name);

/// Parsed common bench options.
struct BenchOptions {
  std::vector<unsigned> ThreadCounts = {8, 16};
  unsigned ProfileRuns = 6;
  unsigned MeasureRuns = 8;
  double Tfactor = 4.0;
  SizeClass TrainSize = SizeClass::Medium;
  SizeClass MeasureSize = SizeClass::Large;
  std::vector<std::string> Workloads;
  uint64_t Seed = 1;
  /// Run the guided side even when the analyzer rejects the model (the
  /// figures need guided data for every benchmark; Fig. 8 specifically
  /// shows the rejected ssca2 degrading).
  bool ForceGuided = true;
  /// When non-empty, runStampExperiment also writes the full experiment
  /// JSON (metrics + telemetry, see core/JsonExport.h) to
  /// <dir>/<workload>_t<threads>.json for `model_ctl stats` and
  /// offline analysis. The directory must exist.
  std::string JsonDir;

  /// Parses the common options plus \p Extra, the binary's own keys,
  /// whose values the binary reads from \p Parsed. `--help` prints the
  /// usage and exits 0; an undeclared key, a thread count outside
  /// [1, StatsShardCount], a run count outside [1, 2^32 - 1], a Tfactor
  /// below 1, an unknown size class or workload or a value that does not
  /// parse prints a message and exits 2.
  static BenchOptions parse(int Argc, char **Argv,
                            std::vector<OptionSpec> Extra = {},
                            Options *Parsed = nullptr);
};

/// Runs the full experiment pipeline for \p Workload, a checked STAMP
/// name, at \p Threads.
ExperimentResult runStampExperiment(const std::string &Workload,
                                    const BenchOptions &Opts,
                                    unsigned Threads);

/// Prints the standard bench banner (paper reference + configuration).
void printBanner(const char *Title, const char *PaperRef,
                 const BenchOptions &Opts);

/// Prints, for each of \p ThreadCounts, whether its runs force scheduler
/// yields (forcedYieldShift: only when the workers outnumber the usable
/// CPUs), as `forced yields: on|off (T workers, C usable CPUs)`.
void printForcedYields(const std::vector<unsigned> &ThreadCounts);

/// Prints the heading of one table or figure in a paper driver's report.
void printSection(const std::string &Title, const char *PaperRef);

} // namespace gstm

#endif // GSTM_BENCH_COMMON_H
