//===- core/Trace.cpp ------------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Trace.h"

#include <algorithm>
#include <cassert>

using namespace gstm;

void TraceCollector::onCommit(const CommitEvent &E) {
  assert(E.Thread < PerThread.size() && "thread id out of range");
  TraceEvent Ev;
  Ev.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Ev.Thread = E.Thread;
  Ev.Tx = E.Tx;
  Ev.IsCommit = true;
  Ev.PriorAborts = E.PriorAborts;
  PerThread[E.Thread].Events.push_back(Ev);
}

void TraceCollector::onAbort(const AbortEvent &E) {
  assert(E.Thread < PerThread.size() && "thread id out of range");
  TraceEvent Ev;
  Ev.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Ev.Thread = E.Thread;
  Ev.Tx = E.Tx;
  Ev.IsCommit = false;
  PerThread[E.Thread].Events.push_back(Ev);
}

std::vector<TraceEvent> TraceCollector::takeTrace() {
  std::vector<TraceEvent> Merged;
  size_t Total = 0;
  for (const Buffer &B : PerThread)
    Total += B.Events.size();
  Merged.reserve(Total);
  for (Buffer &B : PerThread) {
    Merged.insert(Merged.end(), B.Events.begin(), B.Events.end());
    B.Events.clear();
  }
  std::sort(Merged.begin(), Merged.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.Seq < B.Seq;
            });
  return Merged;
}

std::vector<AbortHistogram> TraceCollector::abortHistograms() const {
  std::vector<AbortHistogram> Hists(PerThread.size());
  for (size_t T = 0; T < PerThread.size(); ++T)
    for (const TraceEvent &E : PerThread[T].Events)
      if (E.IsCommit)
        Hists[T].add(E.PriorAborts);
  return Hists;
}

void TraceCollector::reset() {
  for (Buffer &B : PerThread)
    B.Events.clear();
  NextSeq.store(0, std::memory_order_relaxed);
}

/// Every commit absorbs the aborts logged since the previous commit.
/// Trailing aborts with no subsequent commit are dropped, as in the
/// paper's Tseq parsing.
std::vector<StateTuple> gstm::groupTuples(const std::vector<TraceEvent> &Trace,
                                          Grouping) {
  std::vector<StateTuple> Tuples;
  std::vector<TxThreadPair> Pending;
  for (const TraceEvent &E : Trace) {
    if (!E.IsCommit) {
      Pending.push_back(packPair(E.Tx, E.Thread));
      continue;
    }
    StateTuple S;
    S.Commit = packPair(E.Tx, E.Thread);
    S.Aborts = std::move(Pending);
    Pending.clear();
    S.canonicalize();
    Tuples.push_back(std::move(S));
  }
  return Tuples;
}
