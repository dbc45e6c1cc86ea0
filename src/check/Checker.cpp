//===- check/Checker.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace gstm;

namespace {

std::string describeAttempt(const AttemptRecord &A) {
  std::ostringstream Os;
  Os << "tx " << A.Tx << " on thread " << A.Thread << " (begin seq "
     << A.BeginSeq << ", "
     << (A.committed()                          ? "committed"
         : A.Outcome == AttemptOutcome::Aborted ? "aborted"
                                                : "in flight");
  if (A.committed() && !A.ReadOnly)
    Os << " at version " << A.CommitVersion;
  Os << ")";
  return Os.str();
}

CheckResult violation(std::string Reason) {
  return CheckResult{std::move(Reason)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Invariants
//===----------------------------------------------------------------------===//

CheckResult gstm::checkInvariants(const History &H) {
  // Commit-version sanity: unique, above the attempt's own rv, and
  // monotonically increasing per thread (the global clock never moves
  // backwards for any observer).
  std::unordered_map<uint64_t, const AttemptRecord *> ByVersion;
  std::unordered_map<ThreadId, uint64_t> LastVersionOfThread;
  for (const AttemptRecord &A : H.Attempts) {
    for (const AccessRecord &Acc : A.Accesses)
      if (Acc.K == AccessRecord::Kind::Load && !Acc.Buffered &&
          Acc.Version > A.ReadVersion)
        return violation("read validated against version " +
                         std::to_string(Acc.Version) +
                         " newer than the attempt's rv " +
                         std::to_string(A.ReadVersion) + " in " +
                         describeAttempt(A));
    if (!A.committed() || A.ReadOnly)
      continue;
    if (A.CommitVersion <= A.ReadVersion)
      return violation("commit version not above rv in " +
                       describeAttempt(A));
    auto [It, Fresh] = ByVersion.emplace(A.CommitVersion, &A);
    if (!Fresh)
      return violation("commit version " + std::to_string(A.CommitVersion) +
                       " installed twice: " + describeAttempt(*It->second) +
                       " and " + describeAttempt(A));
    auto [LastIt, FirstCommit] =
        LastVersionOfThread.emplace(A.Thread, A.CommitVersion);
    if (!FirstCommit) {
      if (A.CommitVersion <= LastIt->second)
        return violation("per-thread commit versions not monotonic on "
                         "thread " +
                         std::to_string(A.Thread));
      LastIt->second = A.CommitVersion;
    }
  }
  return CheckResult{};
}

//===----------------------------------------------------------------------===//
// Opacity: one serialization of every attempt
//===----------------------------------------------------------------------===//

CheckResult gstm::checkOpacity(const History &H) {
  // Nodes: the committed attempts, and every other attempt that read
  // global state, as a read-only transaction.
  std::vector<const AttemptRecord *> Txns;
  std::vector<std::vector<const AccessRecord *>> ReadsOf;
  for (const AttemptRecord &A : H.Attempts) {
    auto Reads = A.globalReads();
    if (!A.committed() && Reads.empty())
      continue;
    Txns.push_back(&A);
    ReadsOf.push_back(std::move(Reads));
  }
  const int N = static_cast<int>(Txns.size());

  // The committed writers of each location, in commit-version order.
  struct Write {
    uint64_t Version;
    int Node;
    uint64_t Value;
  };
  std::unordered_map<const void *, std::vector<Write>> WritersOf;
  for (int I = 0; I < N; ++I)
    if (Txns[I]->committed())
      for (const auto &[Addr, Value] : Txns[I]->finalWrites())
        WritersOf[Addr].push_back(Write{Txns[I]->CommitVersion, I, Value});

  // Nodes [0, N) are the attempts, [N, 2N) the real-time end points.
  std::vector<std::vector<int>> Succ(2 * N);
  for (auto &[Addr, Ws] : WritersOf) {
    std::sort(Ws.begin(), Ws.end(), [](const Write &A, const Write &B) {
      return A.Version < B.Version;
    });
    for (size_t K = 1; K < Ws.size(); ++K)
      Succ[Ws[K - 1].Node].push_back(Ws[K].Node);
  }

  // A read that validated against version V reads from the last writer
  // at or before V (none: the initial value) and precedes the writer
  // after that one. Stripe aliasing cannot move V past that next writer:
  // TL2 takes its write version while it holds the stripe lock, so an
  // alias can only push V later between the two.
  const std::vector<Write> NoWriters;
  for (int I = 0; I < N; ++I)
    for (const AccessRecord *R : ReadsOf[I]) {
      auto WIt = WritersOf.find(R->Addr);
      const std::vector<Write> &Ws =
          WIt == WritersOf.end() ? NoWriters : WIt->second;
      const size_t Next =
          std::upper_bound(Ws.begin(), Ws.end(), R->Version,
                           [](uint64_t V, const Write &W) {
                             return V < W.Version;
                           }) -
          Ws.begin();
      if (Next > 0)
        Succ[Ws[Next - 1].Node].push_back(I);
      if (Next < Ws.size() && Ws[Next].Node != I)
        Succ[I].push_back(Ws[Next].Node);

      // The value must be the one its writer installed. Data is written
      // back before the version is published, so old data under a newer
      // version is what a torn publish produces, and a value only an
      // aborted attempt wrote never matches a committed writer.
      auto InitIt = H.Initial.find(R->Addr);
      const bool HasInitial = InitIt != H.Initial.end();
      if (Next == 0 && !HasInitial)
        continue; // unknown initial value: nothing to compare against
      const uint64_t Want = Next > 0 ? Ws[Next - 1].Value : InitIt->second;
      if (R->Value == Want)
        continue;
      // Without an initial value, a value no committed writer installed
      // may be the location's unknown base (recycled tmds node cells).
      if (!HasInitial &&
          std::none_of(Ws.begin(), Ws.end(),
                       [&](const Write &W) { return W.Value == R->Value; }))
        continue;
      return violation("stale read: value " + std::to_string(R->Value) +
                       " under version " + std::to_string(R->Version) +
                       ", where the installed value is " +
                       std::to_string(Want) + ", in " +
                       describeAttempt(*Txns[I]));
    }

  // Real-time order as a chain of end points sorted by EndSeq: each
  // attempt feeds its own end point, each end point the next, and the
  // last end before an attempt began feeds that attempt. So T reaches U
  // through the chain exactly when T ended before U began. This holds
  // for aborted attempts too: their reads follow their BeginSeq stamp,
  // and a writer's writeback precedes its EndSeq stamp.
  std::vector<int> ByEnd(N);
  std::iota(ByEnd.begin(), ByEnd.end(), 0);
  std::sort(ByEnd.begin(), ByEnd.end(), [&](int A, int B) {
    return Txns[A]->EndSeq < Txns[B]->EndSeq;
  });
  std::vector<uint64_t> Ends(N);
  for (int K = 0; K < N; ++K) {
    Ends[K] = Txns[ByEnd[K]]->EndSeq;
    Succ[ByEnd[K]].push_back(N + K);
    if (K + 1 < N)
      Succ[N + K].push_back(N + K + 1);
  }
  for (int J = 0; J < N; ++J) {
    auto K = std::lower_bound(Ends.begin(), Ends.end(), Txns[J]->BeginSeq) -
             Ends.begin();
    if (K > 0)
      Succ[N + K - 1].push_back(J);
  }

  // Kahn's topological sort: a node left with predecessors lies on or
  // behind a cycle.
  std::vector<int> InDegree(2 * N, 0);
  for (const std::vector<int> &Out : Succ)
    for (int To : Out)
      ++InDegree[To];
  std::vector<int> Ready;
  for (int V = 0; V < 2 * N; ++V)
    if (InDegree[V] == 0)
      Ready.push_back(V);
  while (!Ready.empty()) {
    int V = Ready.back();
    Ready.pop_back();
    for (int To : Succ[V])
      if (--InDegree[To] == 0)
        Ready.push_back(To);
  }
  auto Stuck = std::find_if(InDegree.begin(), InDegree.begin() + N,
                            [](int D) { return D > 0; });
  if (Stuck == InDegree.begin() + N)
    return CheckResult{};

  // Every stuck node has a stuck predecessor, so walking back through
  // them must revisit a node; the walk from there on is a cycle, listed
  // in serialization order.
  std::vector<int> PredOf(2 * N, -1);
  for (int U = 0; U < 2 * N; ++U)
    if (InDegree[U] > 0)
      for (int To : Succ[U])
        if (InDegree[To] > 0)
          PredOf[To] = U;
  std::vector<int> Path, PosOf(2 * N, -1);
  int V = static_cast<int>(Stuck - InDegree.begin());
  while (PosOf[V] < 0) {
    PosOf[V] = static_cast<int>(Path.size());
    Path.push_back(V);
    V = PredOf[V];
  }
  std::string Cycle;
  for (int K = static_cast<int>(Path.size()) - 1; K >= PosOf[V]; --K)
    if (Path[K] < N)
      Cycle += describeAttempt(*Txns[Path[K]]) + " -> ";
  return violation("no serialization gives every attempt a consistent "
                   "snapshot under their reads, writes and real-time "
                   "order; cycle: " +
                   Cycle + "back to the first");
}

CheckResult gstm::checkAll(const History &H) {
  CheckResult R = checkInvariants(H);
  if (R.ok())
    R = checkOpacity(H);
  return R;
}

bool gstm::lockTableQuiescent(LockTable &Locks, std::string *Why) {
  for (size_t I = 0, E = Locks.size(); I != E; ++I) {
    StripeState S = LockTable::decode(
        Locks.stripeAt(I).load(std::memory_order_acquire));
    if (S.Locked) {
      if (Why)
        *Why = "stripe " + std::to_string(I) +
               " still locked at quiescence (owner pair " +
               std::to_string(S.Owner) + ")";
      return false;
    }
  }
  return true;
}
