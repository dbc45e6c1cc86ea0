//===- core/Workload.h - Abstract transactional workload -----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every TL2-based benchmark (the STAMP ports and synthetic
/// tests) implements so the profiling / model-generation / guided-
/// execution pipeline can drive it. A workload is re-set-up for every run
/// from a seed, keeping guided and default executions comparable on
/// identical inputs.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_WORKLOAD_H
#define GSTM_CORE_WORKLOAD_H

#include "engine/Tl2.h"
#include "support/Ids.h"

#include <cstdint>
#include <string>

namespace gstm {

/// A multi-threaded transactional benchmark driven by the runner.
///
/// Lifecycle per run: setup() once (single-threaded), threadBody() once
/// per worker concurrently, then verify() and teardown() single-threaded.
class TlWorkload {
public:
  virtual ~TlWorkload() = default;

  /// Benchmark name as reported in tables (e.g. "kmeans").
  virtual std::string name() const = 0;

  /// Number of static transaction sites (TM_BEGIN ids) this workload
  /// contains. Site ids used by threadBody must be < this.
  virtual unsigned numTxSites() const = 0;

  /// Builds the shared state for one run. \p Seed determinizes input
  /// generation; the same seed must produce the same input.
  virtual void setup(Tl2Stm &Stm, unsigned NumThreads, uint64_t Seed) = 0;

  /// Body of worker \p Thread. Runs concurrently with all other workers;
  /// all shared accesses must go through the STM.
  virtual void threadBody(Tl2Stm &Stm, ThreadId Thread) = 0;

  /// Checks post-run invariants (single-threaded). Returns false on a
  /// correctness violation; the runner records it.
  virtual bool verify(Tl2Stm &Stm) {
    (void)Stm;
    return true;
  }

  /// Releases per-run state (single-threaded).
  virtual void teardown() {}
};

} // namespace gstm

#endif // GSTM_CORE_WORKLOAD_H
