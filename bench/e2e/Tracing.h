//===- bench/e2e/Tracing.h - Benchmark-side spans and layer timers --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of gstm_bench. Everything here lives on the benchmark
/// side of the program's public interfaces: nothing in src/ is modified.
///
///  * SpanLog records coarse spans (set-up phases, runs, repeats, thread
///    bodies) in memory and writes them as Chrome trace-event JSON at exit.
///  * TimedGate / TimedObserver wrap a StartGate / TxEventObserver (the
///    GuideController in a guided run) and accumulate per-thread time.
///    Those boundaries fire once per transaction attempt, millions of
///    times per set, so they feed counters rather than spans.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_E2E_TRACING_H
#define GSTM_BENCH_E2E_TRACING_H

#include "stm/Observer.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gstm::e2e {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Thread-safe in-memory span recorder. Span ids start at 1; parent 0 is
/// the root.
class SpanLog {
public:
  /// Opens span \p Name under \p Parent for run/repeat \p Run (-1: none)
  /// on lane \p Lane (the worker index for thread bodies, else 0).
  uint64_t openSpan(std::string Name, uint64_t Parent, int64_t Run,
                    unsigned Lane = 0);
  /// Closes span \p Id and returns its duration in seconds.
  double closeSpan(uint64_t Id);

  /// Writes every closed span as a Chrome trace-event document
  /// ({"traceEvents": [...]}, complete "X" events in microseconds).
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

private:
  struct Span {
    std::string Name;
    uint64_t Parent;
    int64_t Run;
    unsigned Lane;
    uint64_t StartNs;
    uint64_t EndNs;
  };
  mutable std::mutex M;
  std::vector<Span> Spans; // index = id - 1
  const uint64_t OriginNs = nowNs();
};

/// Opens a span on construction and closes it on destruction; a null log
/// makes it a plain timer, so untraced code paths share the same phases.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, std::string Name, uint64_t Parent, int64_t Run,
             unsigned Lane = 0);
  ~ScopedSpan() { closeSpan(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return Id; }
  /// Closes the span early; returns its duration in seconds (the same
  /// value on every later call).
  double closeSpan();

private:
  SpanLog *Log;
  uint64_t Id = 0;
  uint64_t StartNs;
  double Seconds = -1;
};

/// Per-thread time spent at the gate and observer boundaries, plus the
/// thread body's wall time. Written only by its own worker; read after the
/// workers have joined.
struct alignas(64) LayerCounters {
  uint64_t GateHeldNs = 0;
  uint64_t GatePassNs = 0;
  uint64_t CommitNs = 0;
  uint64_t AbortNs = 0;
  uint64_t BodyNs = 0;

  void merge(const LayerCounters &O);
};

/// Times every StartGate::onTxStart of \p Inner. A call that took at least
/// \p HoldThresholdNs counts as held: GuideController sleeps at least
/// GateSleepMicros on every hold, while a passed check returns in tens of
/// nanoseconds, so the split needs no access to the controller's state.
class TimedGate final : public StartGate {
public:
  TimedGate(StartGate &Inner, std::vector<LayerCounters> &PerThread,
            uint64_t HoldThresholdNs)
      : Inner(Inner), PerThread(PerThread), HoldThresholdNs(HoldThresholdNs) {}

  void onTxStart(ThreadId Thread, TxId Tx) override;

private:
  StartGate &Inner;
  std::vector<LayerCounters> &PerThread;
  uint64_t HoldThresholdNs;
};

/// Times every commit and abort callback of \p Inner.
class TimedObserver final : public TxEventObserver {
public:
  TimedObserver(TxEventObserver &Inner, std::vector<LayerCounters> &PerThread)
      : Inner(Inner), PerThread(PerThread) {}

  void onCommit(const CommitEvent &E) override;
  void onAbort(const AbortEvent &E) override;

private:
  TxEventObserver &Inner;
  std::vector<LayerCounters> &PerThread;
};

} // namespace gstm::e2e

#endif // GSTM_BENCH_E2E_TRACING_H
