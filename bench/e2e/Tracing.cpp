//===- bench/e2e/Tracing.cpp ----------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "Tracing.h"

#include "support/Json.h"

#include <fstream>

using namespace gstm;
using namespace gstm::e2e;

uint64_t SpanLog::openSpan(std::string Name, uint64_t Parent, int64_t Run,
                           unsigned Lane) {
  const uint64_t Start = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(Span{std::move(Name), Parent, Run, Lane, Start, Start});
  return Spans.size();
}

double SpanLog::closeSpan(uint64_t Id) {
  const uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Span &S = Spans[Id - 1];
  S.EndNs = End;
  return static_cast<double>(End - S.StartNs) * 1e-9;
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               std::string &Error) const {
  JsonWriter W;
  W.beginObject().key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();
  {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      W.beginObject();
      W.key("name").value(S.Name);
      W.key("ph").value("X");
      W.key("pid").value(uint64_t{1});
      W.key("tid").value(uint64_t{S.Lane});
      W.key("ts").value(static_cast<double>(S.StartNs - OriginNs) * 1e-3);
      W.key("dur").value(static_cast<double>(S.EndNs - S.StartNs) * 1e-3);
      W.key("args").beginObject();
      W.key("id").value(uint64_t{I + 1});
      W.key("parent").value(S.Parent);
      W.key("run").value(S.Run);
      W.endObject();
      W.endObject();
    }
  }
  W.endArray().endObject();

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << W.str() << '\n';
  Out.close();
  if (!Out) {
    Error = "cannot write trace file " + Path;
    return false;
  }
  return true;
}

ScopedSpan::ScopedSpan(SpanLog *Log, std::string Name, uint64_t Parent,
                       int64_t Run, unsigned Lane)
    : Log(Log), StartNs(nowNs()) {
  if (Log)
    Id = Log->openSpan(std::move(Name), Parent, Run, Lane);
}

double ScopedSpan::closeSpan() {
  if (Seconds < 0)
    Seconds = Log ? Log->closeSpan(Id)
                  : static_cast<double>(nowNs() - StartNs) * 1e-9;
  return Seconds;
}

void LayerCounters::merge(const LayerCounters &O) {
  GateHeldNs += O.GateHeldNs;
  GatePassNs += O.GatePassNs;
  CommitNs += O.CommitNs;
  AbortNs += O.AbortNs;
  BodyNs += O.BodyNs;
}

// Thread ids index the per-thread array modulo its size so a workload
// that numbered its threads unexpectedly can skew the split but never
// write out of bounds.

void TimedGate::onTxStart(ThreadId Thread, TxId Tx) {
  const uint64_t T0 = nowNs();
  Inner.onTxStart(Thread, Tx);
  const uint64_t Ns = nowNs() - T0;
  LayerCounters &C = PerThread[Thread % PerThread.size()];
  (Ns >= HoldThresholdNs ? C.GateHeldNs : C.GatePassNs) += Ns;
}

void TimedObserver::onCommit(const CommitEvent &E) {
  const uint64_t T0 = nowNs();
  Inner.onCommit(E);
  PerThread[E.Thread % PerThread.size()].CommitNs += nowNs() - T0;
}

void TimedObserver::onAbort(const AbortEvent &E) {
  const uint64_t T0 = nowNs();
  Inner.onAbort(E);
  PerThread[E.Thread % PerThread.size()].AbortNs += nowNs() - T0;
}
