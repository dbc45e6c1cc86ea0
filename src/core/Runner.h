//===- core/Runner.h - Single-run execution driver ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one run of a workload — default or guided — and collects what
/// the paper measures: per-thread execution time of the thread function,
/// per-thread abort histograms, the grouped thread-transactional-state
/// sequence, and gate statistics for guided runs.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_RUNNER_H
#define GSTM_CORE_RUNNER_H

#include "core/GuideController.h"
#include "core/Trace.h"
#include "core/Workload.h"
#include "support/Stats.h"

#include <cstdint>
#include <vector>

namespace gstm {

/// Forced-yield shift of experiment runs (EngineConfig::PreemptShift): one
/// sched_yield per 32 transactional accesses.
inline constexpr unsigned ExperimentPreemptShift = 5;

/// CPUs this process may run on, as `nproc` reports them: the size of its
/// sched_getaffinity mask, else std::thread::hardware_concurrency(), and
/// never below 1.
unsigned usableCpus();

/// The PreemptShift an experiment run of \p Threads workers uses: \p Shift
/// when the workers outnumber \p Cpus, 0 otherwise. A forced yield only
/// makes transactions overlap when a waiting worker shares the CPU; with a
/// CPU per worker it finds nothing else to run (DESIGN §2, substitution 1).
unsigned forcedYieldShift(unsigned Shift, unsigned Threads,
                          unsigned Cpus = usableCpus());

/// STM configuration used by experiment runs: scheduler perturbation on
/// (see EngineConfig::PreemptShift) so transactions overlap even when the
/// host has fewer cores than workers. runWorkloadOnce keeps the yields only
/// while its workers outnumber the usable CPUs (forcedYieldShift); code
/// that builds a Tl2Stm from this configuration itself always yields.
inline Tl2Config experimentStmConfig() {
  Tl2Config Cfg;
  Cfg.PreemptShift = ExperimentPreemptShift;
  // Attempt-latency sampling is cheap (two steady_clock reads per attempt
  // on a thread-private shard) and feeds the exported telemetry.
  Cfg.TrackAttemptLatency = true;
  return Cfg;
}

/// Per-run configuration shared by default and guided executions.
struct RunnerConfig {
  unsigned Threads = 8;
  /// The tuple grouping; Sequence is the only one.
  Grouping GroupMode = Grouping::Sequence;
  /// The run's STM configuration. runWorkloadOnce applies its PreemptShift
  /// through forcedYieldShift: only while Threads > usableCpus().
  Tl2Config Stm = experimentStmConfig();
  GuideConfig Guide;
  /// Always null and read by nothing here; kept because bench/e2e
  /// compiles against it.
  ContentionManager *Cm = nullptr;
  /// When false, the event trace is not recorded (lowest overhead; used
  /// for pure timing comparisons).
  bool CollectTrace = true;
  /// Optional consumer of the guided run's tuple stream, attached to its
  /// GuideController (GuideController::setTtsSink); must outlive the run.
  /// Not owned. Ignored for unguided runs (no controller forms tuples).
  TtsSink *Learner = nullptr;
};

/// Everything measured during one run.
struct RunResult {
  /// Execution time of each worker's thread function, in seconds. On a
  /// host with at least as many cores as workers this is wall time, the
  /// paper's metric. When workers time-share cores, every thread's wall
  /// time collapses to the global run duration and the per-thread
  /// variance channel disappears, so the runner records per-thread *CPU*
  /// time instead — it still reflects the thread's own committed and
  /// aborted work (see DESIGN.md, substitutions).
  std::vector<double> ThreadSeconds;
  /// Per-thread distribution of aborts-before-commit.
  std::vector<AbortHistogram> ThreadHists;
  /// Thread-transactional-state sequence of the run (empty when trace
  /// collection is off).
  std::vector<StateTuple> Tuples;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  /// Aggregated sharded telemetry of the run: abort breakdown by cause
  /// and site, retries-before-commit histogram, attempt latency.
  /// Commits/Aborts above are its totals, kept as separate fields for
  /// existing consumers.
  StatsSnapshot Telemetry;
  /// Per-thread shard snapshots, indexed by ThreadId (shard index ==
  /// ThreadId while Threads <= StatsShardCount, which covers every
  /// configuration the experiments use).
  std::vector<StatsSnapshot> ThreadTelemetry;
  double WallSeconds = 0.0;
  /// Gate counters (all zero for unguided runs).
  GuideStats Guide;
  /// Result of the workload's own invariant check.
  bool Verified = true;
};

/// Runs \p Workload once with \p Config on input \p Seed. When \p Policy
/// is non-null the run is guided by it; otherwise it is a default run.
RunResult runWorkloadOnce(TlWorkload &Workload, const RunnerConfig &Config,
                          uint64_t Seed, const GuidedPolicy *Policy);

} // namespace gstm

#endif // GSTM_CORE_RUNNER_H
