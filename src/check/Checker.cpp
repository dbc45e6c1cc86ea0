//===- check/Checker.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"

#include <algorithm>
#include <limits>
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
  return CheckResult{Verdict::Violation, std::move(Reason)};
}

CheckResult inconclusive(std::string Reason) {
  return CheckResult{Verdict::Inconclusive, std::move(Reason)};
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
    for (const auto &[Addr, Value] : A.globalReads()) {
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
    for (const auto &[Addr, Value] : Reads) {
      auto TlIt = Timelines.find(Addr);
      if (TlIt == Timelines.end())
        continue; // never initialized nor committed to: no basis to judge
      uint64_t Validated = 0;
      for (const AccessRecord &Acc : A.Accesses)
        if (Acc.K == AccessRecord::Kind::Load && !Acc.Buffered &&
            Acc.Addr == Addr) {
          Validated = Acc.Version;
          break;
        }
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

namespace {

/// Backtracking budget for the serialization search, in graph-node
/// visits. Exhaustion yields Inconclusive, never a false verdict.
constexpr uint64_t SearchBudget = 1 << 20;

/// Constraint from a read: the other writer \p Other of the same location
/// must serialize either before the read's source \p Source or after the
/// reader \p Reader (never in between).
struct PlacementChoice {
  int Other;
  int Source;
  int Reader;
};

/// Acyclic digraph under construction; node 0 is the virtual initial
/// transaction. Edges are only added when they provably do not close a
/// cycle, so acyclicity is an invariant.
class OrderGraph {
public:
  explicit OrderGraph(int N, uint64_t Budget)
      : Adj(N), Mark(N, 0), Budget(Budget) {}

  bool budgetExhausted() const { return Exhausted; }

  /// True when a path From ->* To exists under the current edges.
  bool reaches(int From, int To) {
    if (From == To)
      return true;
    ++Epoch;
    return dfs(From, To);
  }

  /// Adds From -> To unless it would close a cycle; returns false then.
  bool addEdge(int From, int To) {
    if (reaches(To, From))
      return false;
    Adj[From].push_back(To);
    Trail.push_back(From);
    return true;
  }

  size_t mark() const { return Trail.size(); }
  void rewindTo(size_t M) {
    while (Trail.size() > M) {
      Adj[Trail.back()].pop_back();
      Trail.pop_back();
    }
  }

private:
  bool dfs(int At, int To) {
    if (Budget == 0) {
      Exhausted = true;
      return true; // claim reachability: callers then refuse the edge,
                   // which can only lead to Inconclusive, never Ok
    }
    --Budget;
    Mark[At] = Epoch;
    for (int Next : Adj[At]) {
      if (Next == To)
        return true;
      if (Mark[Next] != Epoch && dfs(Next, To))
        return true;
    }
    return false;
  }

  std::vector<std::vector<int>> Adj;
  std::vector<uint64_t> Mark;
  std::vector<int> Trail;
  uint64_t Epoch = 0;
  uint64_t Budget;
  bool Exhausted = false;
};

enum class Sat : uint8_t { Yes, No, Unknown };

Sat searchPlacements(OrderGraph &G,
                     const std::vector<PlacementChoice> &Choices,
                     size_t Idx) {
  if (G.budgetExhausted())
    return Sat::Unknown;
  if (Idx == Choices.size())
    return Sat::Yes;
  const PlacementChoice &C = Choices[Idx];
  // Already satisfied? Paths only grow, so once a disjunct holds it holds
  // in every extension.
  if (G.reaches(C.Other, C.Source) || G.reaches(C.Reader, C.Other))
    return searchPlacements(G, Choices, Idx + 1);
  bool SawUnknown = false;
  // Option A: Other before Source.
  size_t M = G.mark();
  if (G.addEdge(C.Other, C.Source)) {
    Sat R = searchPlacements(G, Choices, Idx + 1);
    if (R == Sat::Yes)
      return R;
    if (R == Sat::Unknown)
      SawUnknown = true;
    G.rewindTo(M);
  }
  // Option B: Reader before Other.
  if (G.addEdge(C.Reader, C.Other)) {
    Sat R = searchPlacements(G, Choices, Idx + 1);
    if (R == Sat::Yes)
      return R;
    if (R == Sat::Unknown)
      SawUnknown = true;
    G.rewindTo(M);
  }
  if (G.budgetExhausted() || SawUnknown)
    return Sat::Unknown;
  return Sat::No;
}

} // namespace

CheckResult gstm::checkCommittedSerializable(const History &H,
                                             bool ValuesAreUnique) {
  std::vector<const AttemptRecord *> Txns;
  for (const AttemptRecord &A : H.Attempts)
    if (A.committed())
      Txns.push_back(&A);
  const int N = static_cast<int>(Txns.size()) + 1; // node 0 = Init

  // Index the committed writers per location by written value.
  std::unordered_map<const void *, std::vector<std::pair<uint64_t, int>>>
      WritersOf; // addr -> (value, node)
  for (int I = 0; I < N - 1; ++I)
    for (const auto &[Addr, Value] : Txns[I]->finalWrites())
      WritersOf[Addr].emplace_back(Value, I + 1);

  OrderGraph G(N, SearchBudget);
  // Real-time order: an attempt that ended before another began must
  // serialize before it.
  for (int I = 0; I < N - 1; ++I)
    for (int J = 0; J < N - 1; ++J)
      if (Txns[I]->EndSeq < Txns[J]->BeginSeq)
        if (!G.addEdge(I + 1, J + 1))
          return violation("real-time order of commits is cyclic "
                           "(corrupt history stamps)");

  std::vector<PlacementChoice> Choices;
  for (int I = 0; I < N - 1; ++I) {
    const int Reader = I + 1;
    for (const auto &[Addr, Value] : Txns[I]->globalReads()) {
      // Resolve the read to the transaction that produced the value.
      int Source = -1;
      bool Ambiguous = false;
      auto WIt = WritersOf.find(Addr);
      if (WIt != WritersOf.end())
        for (const auto &[WValue, WNode] : WIt->second) {
          if (WValue != Value || WNode == Reader)
            continue;
          if (Source >= 0)
            Ambiguous = true;
          Source = WNode;
        }
      auto InitIt = H.Initial.find(Addr);
      if (InitIt != H.Initial.end() && InitIt->second == Value) {
        if (Source >= 0)
          Ambiguous = true;
        else
          Source = 0;
      }
      if (Ambiguous)
        return ValuesAreUnique
                   ? inconclusive("read value produced by several writers; "
                                  "cannot attribute the read")
                   : inconclusive("workload values not unique; skipping "
                                  "serializability");
      if (Source < 0) {
        if (InitIt == H.Initial.end())
          continue; // unknown initial value: read carries no constraint
        return violation("committed " + describeAttempt(*Txns[I]) +
                         " read value " + std::to_string(Value) +
                         " that no committed transaction wrote");
      }
      // Source must precede Reader...
      if (Source != 0 && !G.reaches(Source, Reader))
        if (!G.addEdge(Source, Reader))
          return violation("read-from order contradicts the established "
                           "commit order: " +
                           describeAttempt(*Txns[I]) + " read from " +
                           describeAttempt(*Txns[Source - 1]));
      // ...and no other writer of the location may fall in between.
      if (WIt != WritersOf.end())
        for (const auto &[WValue, WNode] : WIt->second) {
          if (WNode == Source || WNode == Reader)
            continue;
          if (Source == 0) {
            // Nothing precedes Init: the other writer must follow Reader.
            if (!G.addEdge(Reader, WNode))
              return violation(
                  "writer must follow a reader of the initial value but "
                  "is already ordered before it: " +
                  describeAttempt(*Txns[WNode - 1]) + " vs " +
                  describeAttempt(*Txns[I]));
          } else {
            Choices.push_back(PlacementChoice{WNode, Source, Reader});
          }
        }
    }
  }
  if (G.budgetExhausted())
    return inconclusive("serialization search budget exhausted");

  switch (searchPlacements(G, Choices, 0)) {
  case Sat::Yes:
    return CheckResult{};
  case Sat::Unknown:
    return inconclusive("serialization search budget exhausted");
  case Sat::No:
    return violation("no serialization of the committed transactions is "
                     "consistent with the observed read values");
  }
  return CheckResult{};
}

CheckResult gstm::checkAll(const History &H, bool ValuesAreUnique) {
  CheckResult Inv = checkInvariants(H, ValuesAreUnique);
  if (Inv.violation())
    return Inv;
  CheckResult Op = checkOpacity(H);
  if (Op.violation())
    return Op;
  CheckResult Ser = checkCommittedSerializable(H, ValuesAreUnique);
  if (Ser.violation())
    return Ser;
  for (const CheckResult *R : {&Inv, &Op, &Ser})
    if (!R->ok())
      return *R;
  return CheckResult{};
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
