//===- check/Checker.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace gstm;

namespace {

std::string describeAttempt(const AttemptRecord &A) {
  std::ostringstream Os;
  Os << "tx " << A.Tx << " on thread " << A.Thread << " (begin seq "
     << A.BeginSeq << ", "
     << (A.committed() ? "committed" : "not committed");
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

CheckResult gstm::checkInvariants(const History &H, bool ValuesAreUnique) {
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

  if (!ValuesAreUnique)
    return CheckResult{};

  // Aborted-write visibility: every observed read value must have been
  // installed by a committed transaction or be the location's initial
  // value. A value only an aborted attempt ever wrote leaking into any
  // read is the classic isolation bug.
  std::unordered_map<const void *, std::unordered_set<uint64_t>> Committed;
  std::unordered_map<const void *, std::unordered_set<uint64_t>> Aborted;
  for (const AttemptRecord &A : H.Attempts) {
    if (A.committed()) {
      for (const auto &[Addr, Value] : A.finalWrites())
        Committed[Addr].insert(Value);
    } else {
      for (const AccessRecord &Acc : A.Accesses)
        if (Acc.K == AccessRecord::Kind::Store)
          Aborted[Acc.Addr].insert(Acc.Value);
    }
  }
  for (const AttemptRecord &A : H.Attempts) {
    for (const AccessRecord *R : A.globalReads()) {
      const void *Addr = R->Addr;
      const uint64_t Value = R->Value;
      auto InitIt = H.Initial.find(Addr);
      if (InitIt != H.Initial.end() && InitIt->second == Value)
        continue;
      auto CIt = Committed.find(Addr);
      if (CIt != Committed.end() && CIt->second.count(Value))
        continue;
      if (InitIt == H.Initial.end())
        continue; // unknown base value: cannot judge this location
      auto AIt = Aborted.find(Addr);
      if (AIt != Aborted.end() && AIt->second.count(Value))
        return violation("aborted transaction's write (value " +
                         std::to_string(Value) + ") observed by " +
                         describeAttempt(A));
      return violation("read of value " + std::to_string(Value) +
                       " that no transaction ever committed, in " +
                       describeAttempt(A));
    }
  }
  return CheckResult{};
}

//===----------------------------------------------------------------------===//
// Opacity: snapshot consistency of every attempt
//===----------------------------------------------------------------------===//

namespace {

/// Value \p Value was current on its location over [From, To).
struct Segment {
  uint64_t Value;
  uint64_t From;
  uint64_t To;
};

/// Per-location value timelines derived from the committed writers,
/// ordered by commit version (whose integrity checkInvariants vouches
/// for).
std::unordered_map<const void *, std::vector<Segment>>
buildTimelines(const History &H) {
  std::unordered_map<const void *, std::vector<std::pair<uint64_t, uint64_t>>>
      Writers; // addr -> (version, value)
  for (const AttemptRecord &A : H.Attempts) {
    if (!A.committed() || A.ReadOnly)
      continue;
    for (const auto &[Addr, Value] : A.finalWrites())
      Writers[Addr].emplace_back(A.CommitVersion, Value);
  }
  std::unordered_map<const void *, std::vector<Segment>> Timelines;
  constexpr uint64_t Inf = std::numeric_limits<uint64_t>::max();
  for (auto &[Addr, List] : Writers) {
    std::sort(List.begin(), List.end());
    std::vector<Segment> &Segs = Timelines[Addr];
    auto InitIt = H.Initial.find(Addr);
    if (InitIt != H.Initial.end())
      Segs.push_back(Segment{InitIt->second, 0, List.front().first});
    for (size_t I = 0; I < List.size(); ++I)
      Segs.push_back(Segment{List[I].second, List[I].first,
                             I + 1 < List.size() ? List[I + 1].first : Inf});
  }
  // Locations nobody committed to still have their initial segment.
  for (const auto &[Addr, Value] : H.Initial)
    if (!Timelines.count(Addr))
      Timelines[Addr].push_back(Segment{Value, 0, Inf});
  return Timelines;
}

} // namespace

CheckResult gstm::checkOpacity(const History &H) {
  auto Timelines = buildTimelines(H);
  for (const AttemptRecord &A : H.Attempts) {
    auto Reads = A.globalReads();
    if (Reads.empty())
      continue;
    // Candidate segments per read: the intervals over which the observed
    // value was current. Each read also carries the stripe/object version
    // it validated against; that version must fall inside the value's
    // interval (stripe versions only grow and data is written back before
    // the version is published, so a validated version at or past the
    // interval's end means the reader saw stale data under a fresher
    // version — exactly what a torn publish produces). Stripe aliasing
    // can only push the validated version later *within* the interval,
    // never outside it.
    std::vector<std::vector<const Segment *>> Candidates;
    for (const AccessRecord *R : Reads) {
      const void *Addr = R->Addr;
      const uint64_t Value = R->Value, Validated = R->Version;
      auto TlIt = Timelines.find(Addr);
      if (TlIt == Timelines.end())
        continue; // never initialized nor committed to: no basis to judge
      std::vector<const Segment *> Segs;
      bool ValueKnown = false;
      for (const Segment &S : TlIt->second)
        if (S.Value == Value) {
          ValueKnown = true;
          if (S.From <= Validated && Validated < S.To)
            Segs.push_back(&S);
        }
      if (!ValueKnown) {
        if (!H.Initial.count(Addr))
          continue; // could be the unknown initial value
        return violation("read of " + std::to_string(Value) +
                         " which was never current on its location, in " +
                         describeAttempt(A));
      }
      if (Segs.empty())
        return violation(
            "stale read: value " + std::to_string(Value) +
            " was already overwritten at the version the read "
            "validated against (" +
            std::to_string(Validated) + "), in " + describeAttempt(A));
      Candidates.push_back(std::move(Segs));
    }
    if (Candidates.empty())
      continue;
    // A consistent snapshot exists iff some point lies in one candidate
    // segment of every read. Only segment start points need testing.
    bool Consistent = false;
    for (const auto &PointSegs : Candidates) {
      for (const Segment *P : PointSegs) {
        uint64_t T = P->From;
        bool All = true;
        for (const auto &Segs : Candidates) {
          bool Hit = false;
          for (const Segment *S : Segs)
            if (S->From <= T && T < S->To) {
              Hit = true;
              break;
            }
          if (!Hit) {
            All = false;
            break;
          }
        }
        if (All) {
          Consistent = true;
          break;
        }
      }
      if (Consistent)
        break;
    }
    if (!Consistent)
      return violation("inconsistent snapshot: no point in time explains "
                       "all reads of " +
                       describeAttempt(A));
  }
  return CheckResult{};
}

//===----------------------------------------------------------------------===//
// Final-state serializability of the committed transactions
//===----------------------------------------------------------------------===//

CheckResult gstm::checkCommittedSerializable(const History &H,
                                             bool ValuesAreUnique) {
  std::vector<const AttemptRecord *> Txns;
  for (const AttemptRecord &A : H.Attempts)
    if (A.committed())
      Txns.push_back(&A);
  const int N = static_cast<int>(Txns.size());

  // The committed writers of each location, in commit-version order.
  struct Write {
    uint64_t Version;
    int Node;
    uint64_t Value;
  };
  std::unordered_map<const void *, std::vector<Write>> WritersOf;
  for (int I = 0; I < N; ++I)
    for (const auto &[Addr, Value] : Txns[I]->finalWrites())
      WritersOf[Addr].push_back(Write{Txns[I]->CommitVersion, I, Value});

  // Nodes [0, N) are the transactions, [N, 2N) the real-time end points.
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
  // after that one.
  const std::vector<Write> NoWriters;
  for (int I = 0; I < N; ++I)
    for (const AccessRecord *R : Txns[I]->globalReads()) {
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
      if (!ValuesAreUnique)
        continue;
      auto InitIt = H.Initial.find(R->Addr);
      if (Next == 0 && InitIt == H.Initial.end())
        continue; // unknown initial value: nothing to compare against
      const uint64_t Want = Next > 0 ? Ws[Next - 1].Value : InitIt->second;
      if (R->Value != Want)
        return violation("committed " + describeAttempt(*Txns[I]) +
                         " read value " + std::to_string(R->Value) +
                         " under version " + std::to_string(R->Version) +
                         ", whose writer installed " + std::to_string(Want));
    }

  // Real-time order as a chain of end points sorted by EndSeq: each
  // transaction feeds its own end point, each end point the next, and the
  // last end before a transaction began feeds that transaction. So T
  // reaches U through the chain exactly when T ended before U began.
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
  for (int I = 0; I < N; ++I)
    if (InDegree[I] > 0)
      return violation("no serialization of the committed transactions "
                       "respects their reads, writes and real-time order: " +
                       describeAttempt(*Txns[I]) +
                       " lies on or after a cycle");
  return CheckResult{};
}

CheckResult gstm::checkAll(const History &H, bool ValuesAreUnique) {
  CheckResult R = checkInvariants(H, ValuesAreUnique);
  if (R.ok())
    R = checkOpacity(H);
  if (R.ok())
    R = checkCommittedSerializable(H, ValuesAreUnique);
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
