//===- core/Trace.h - Transaction sequence capture and grouping ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-execution phase of the paper's framework: a modified STM
/// "captures all commits and the corresponding aborts" into a transaction
/// sequence (Tseq). TraceCollector is the TxEventObserver that records the
/// stream; groupTuples() parses a Tseq into the sequence of thread
/// transactional states from which the model is generated (Algorithm 1).
///
/// Each commit absorbs the aborts logged since the previous commit (the
/// paper's sequence grouping). This is what a guided run forms online to
/// track the current state, so it is the one grouping a model is built
/// with.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_TRACE_H
#define GSTM_CORE_TRACE_H

#include "core/Tts.h"
#include "stm/Observer.h"
#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace gstm {

/// One entry of the captured transaction sequence.
struct TraceEvent {
  /// Global capture order (atomic counter at emission time).
  uint64_t Seq;
  ThreadId Thread;
  TxId Tx;
  bool IsCommit;
  /// Commit-only: aborted attempts this transaction suffered first.
  uint32_t PriorAborts = 0;
};

/// How aborts are grouped with commits when parsing a Tseq into states:
/// each commit with the aborts logged since the previous one.
enum class Grouping : uint8_t { Sequence };

/// Thread-safe recorder of the transaction event stream.
///
/// Each worker thread appends to its own buffer (no locking on the hot
/// path); a global atomic sequence number provides the interleaving order.
/// Attach to an STM with Tl2Stm::setObserver (or via GuideController's
/// downstream slot when a run is guided).
class TraceCollector : public TxEventObserver {
public:
  explicit TraceCollector(unsigned NumThreads)
      : PerThread(NumThreads) {}

  void onCommit(const CommitEvent &E) override;
  void onAbort(const AbortEvent &E) override;

  /// Merges the per-thread buffers into one stream ordered by capture
  /// sequence. Call after all workers have joined.
  std::vector<TraceEvent> takeTrace();

  /// Builds per-thread histograms of "aborts suffered before commit" from
  /// the recorded commits (the distributions of paper Figures 5/7/8).
  std::vector<AbortHistogram> abortHistograms() const;

  /// Clears all buffers for reuse.
  void reset();

private:
  struct alignas(64) Buffer {
    std::vector<TraceEvent> Events;
  };
  std::atomic<uint64_t> NextSeq{0};
  std::vector<Buffer> PerThread;
};

/// Parses an ordered Tseq into the sequence of thread transactional
/// states; \p Mode names the one grouping. Tuples are canonicalized.
std::vector<StateTuple> groupTuples(const std::vector<TraceEvent> &Trace,
                                    Grouping Mode);

} // namespace gstm

#endif // GSTM_CORE_TRACE_H
