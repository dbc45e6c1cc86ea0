//===- bench/e2e/TracedRuns.h - Traced mirrors of the program's runners ---===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmark-side copies of the three entry points gstm_bench measures —
/// runWorkloadOnce (core/Runner.h), runOltp (bench/OltpBench.h) and
/// runShardBench (bench/ShardBench.h) — that make the same calls in the
/// same order with the same inputs, adding spans around each layer call
/// and per-layer counters. They exist because the per-layer split needs
/// hooks those entry points do not offer (gate/observer wrappers, read vs
/// update latency, warm-up and placement timing), and the benchmark may
/// not change the program to get them. The untraced pass always calls the
/// program's own entry points; the traced run alternates the two, so the
/// difference between them is the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_E2E_TRACEDRUNS_H
#define GSTM_BENCH_E2E_TRACEDRUNS_H

#include "Tracing.h"

#include "bench/OltpBench.h"
#include "bench/ShardBench.h"
#include "core/Runner.h"
#include "stm/StatsShard.h"
#include "support/LatencyHistogram.h"

#include <vector>

namespace gstm::e2e {

/// runWorkloadOnce guided by \p Policy, with TimedGate/TimedObserver
/// between the STM and the GuideController. \p Layers receives the run's
/// per-thread counters (sized to Config.Threads).
RunResult runWorkloadOnceTraced(TlWorkload &Workload,
                                const RunnerConfig &Config, uint64_t Seed,
                                const GuidedPolicy &Policy, SpanLog &Spans,
                                uint64_t Parent, int64_t Run,
                                std::vector<LayerCounters> &Layers);

/// runOltp result plus what the traced copy measures on top.
struct TracedOltp {
  OltpResult Base;
  LatencyHistogram ReadLatency;
  LatencyHistogram UpdateLatency;
  /// STM counters of the timed phase (attempt latency tracking on).
  StatsSnapshot Telemetry;
  double LoadSeconds = 0;
  double CallSeconds = 0;
};

/// runOltp for the TL2 B-tree with a read/update mix (the configuration
/// the ycsb workload uses); any other configuration comes back with
/// Base.Ok = false.
TracedOltp runOltpTraced(const OltpConfig &Cfg, SpanLog &Spans,
                         uint64_t Parent, int64_t Repeat);

/// runShardBench result plus the set-up phases it times.
struct TracedShard {
  ShardBenchResult Base;
  /// STM counters of the measured window (attempt latency tracking on).
  StatsSnapshot Telemetry;
  double WarmupSeconds = 0;
  double BuildPlacementSeconds = 0;
  double InstallSeconds = 0;
  double CallSeconds = 0;
};

TracedShard runShardBenchTraced(const ShardBenchConfig &Cfg, SpanLog &Spans,
                                uint64_t Parent, int64_t Repeat);

} // namespace gstm::e2e

#endif // GSTM_BENCH_E2E_TRACEDRUNS_H
