//===- tests/property_test.cpp - randomized property tests ------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Randomized (but seeded, hence reproducible) property tests over the
// model layer: trace grouping, automaton bookkeeping, serialization and
// policy compilation must hold structural invariants for *any* input
// stream, not just the hand-built cases in model_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/GuidedPolicy.h"
#include "core/Trace.h"
#include "core/Tsa.h"
#include "model/Serialize.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

using namespace gstm;

namespace {

/// Generates a random but well-formed trace: about two thirds commits,
/// each with a random count of prior aborts, the rest aborts.
std::vector<TraceEvent> randomTrace(SplitMix64 &Rng, size_t Events,
                                    unsigned Threads, unsigned Sites) {
  std::vector<TraceEvent> Trace;
  uint64_t Seq = 0;
  for (size_t I = 0; I < Events; ++I) {
    TraceEvent E;
    E.Seq = Seq++;
    E.Thread = static_cast<ThreadId>(Rng.nextBounded(Threads));
    E.Tx = static_cast<TxId>(Rng.nextBounded(Sites));
    E.IsCommit = Rng.nextBounded(3) != 0; // ~2/3 commits
    if (E.IsCommit)
      E.PriorAborts = static_cast<uint32_t>(Rng.nextBounded(4));
    Trace.push_back(E);
  }
  return Trace;
}

size_t countCommits(const std::vector<TraceEvent> &Trace) {
  size_t N = 0;
  for (const TraceEvent &E : Trace)
    if (E.IsCommit)
      ++N;
  return N;
}

} // namespace

class GroupingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupingProperty, TupleCountEqualsCommitCount) {
  SplitMix64 Rng(GetParam());
  auto Trace = randomTrace(Rng, 400, 8, 4);
  size_t Commits = countCommits(Trace);
  EXPECT_EQ(groupTuples(Trace, Grouping::Sequence).size(), Commits);
}

TEST_P(GroupingProperty, CommitOrderPreservedInBothModes) {
  SplitMix64 Rng(GetParam() ^ 0xbeef);
  auto Trace = randomTrace(Rng, 300, 6, 3);
  std::vector<TxThreadPair> Commits;
  for (const TraceEvent &E : Trace)
    if (E.IsCommit)
      Commits.push_back(packPair(E.Tx, E.Thread));
  auto Seq = groupTuples(Trace, Grouping::Sequence);
  ASSERT_EQ(Seq.size(), Commits.size());
  for (size_t I = 0; I < Seq.size(); ++I)
    EXPECT_EQ(Seq[I].Commit, Commits[I])
        << "grouping may move aborts, never reorder commits";
}

TEST_P(GroupingProperty, NoAbortLostBeforeFinalCommit) {
  SplitMix64 Rng(GetParam() ^ 0xcafe);
  auto Trace = randomTrace(Rng, 300, 6, 3);
  // Count aborts occurring before the last commit: sequence grouping
  // must attach all of them (only trailing aborts may drop).
  size_t LastCommit = 0;
  for (size_t I = 0; I < Trace.size(); ++I)
    if (Trace[I].IsCommit)
      LastCommit = I;
  size_t AbortsBefore = 0;
  for (size_t I = 0; I < LastCommit; ++I)
    if (!Trace[I].IsCommit)
      ++AbortsBefore;

  size_t Attached = 0;
  for (const StateTuple &S : groupTuples(Trace, Grouping::Sequence))
    Attached += S.Aborts.size();
  // Canonicalization dedupes identical (tx,thread) pairs within one
  // tuple, so attached <= raw count; nothing may exceed it.
  EXPECT_LE(Attached, AbortsBefore);
  if (AbortsBefore > 0) {
    EXPECT_GT(Attached, 0u);
  }
}

TEST_P(GroupingProperty, TsaBookkeepingConsistent) {
  SplitMix64 Rng(GetParam() ^ 0xf00d);
  Tsa Model;
  size_t ExpectedTransitions = 0;
  for (int Run = 0; Run < 4; ++Run) {
    auto Tuples =
        groupTuples(randomTrace(Rng, 200, 5, 3), Grouping::Sequence);
    if (!Tuples.empty())
      ExpectedTransitions += Tuples.size() - 1;
    Model.addRun(Tuples);
  }
  EXPECT_EQ(Model.numTransitions(), ExpectedTransitions);

  // Per-state probability normalization.
  for (StateId S = 0; S < Model.numStates(); ++S) {
    auto Succ = Model.successors(S);
    if (Succ.empty())
      continue;
    double Sum = 0;
    uint64_t Count = 0;
    for (const TsaEdge &E : Succ) {
      Sum += E.Probability;
      Count += E.Count;
    }
    EXPECT_NEAR(Sum, 1.0, 1e-9);
    EXPECT_EQ(Count, Model.outFrequency(S));
  }
}

TEST_P(GroupingProperty, SaveLoadPreservesRandomModels) {
  SplitMix64 Rng(GetParam() ^ 0x5eed);
  Tsa Model;
  for (int Run = 0; Run < 3; ++Run)
    Model.addRun(
        groupTuples(randomTrace(Rng, 150, 6, 4), Grouping::Sequence));

  std::string Path = ::testing::TempDir() + "/gstm_prop_" +
                     std::to_string(GetParam()) + ".json";
  ASSERT_EQ(saveModel(Model, Path), ModelIoStatus::Ok);
  ModelLoadResult Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(Loaded.Model->numStates(), Model.numStates());
  EXPECT_EQ(Loaded.Model->numTransitions(), Model.numTransitions());
  // Analyzer must agree on both.
  EXPECT_DOUBLE_EQ(analyzeModel(*Loaded.Model).GuidanceMetricPercent,
                   analyzeModel(Model).GuidanceMetricPercent);
  std::remove(Path.c_str());
}

TEST_P(GroupingProperty, PolicyAllowsExactlyHighProbabilityPairs) {
  SplitMix64 Rng(GetParam() ^ 0x9011c7);
  Tsa Model;
  for (int Run = 0; Run < 3; ++Run)
    Model.addRun(
        groupTuples(randomTrace(Rng, 250, 6, 3), Grouping::Sequence));

  const double Tfactor = 4.0;
  GuidedPolicy Policy(Model, Tfactor);
  for (StateId S = 0; S < Model.numStates(); ++S) {
    auto Kept = highProbabilitySuccessors(Model, S, Tfactor);
    if (Kept.empty())
      continue; // terminal states allow everything
    std::unordered_set<TxThreadPair> Expected;
    for (const TsaEdge &E : Kept) {
      const StateTuple &D = Model.state(E.Dest);
      Expected.insert(D.Commit);
      for (TxThreadPair P : D.Aborts)
        Expected.insert(P);
    }
    EXPECT_EQ(Policy.allowedPairCount(S), Expected.size());
    for (TxThreadPair P : Expected)
      EXPECT_TRUE(Policy.allows(S, P));
    // A pair definitely outside every tuple must be rejected.
    TxThreadPair Alien = packPair(999, 63);
    if (!Expected.count(Alien)) {
      EXPECT_FALSE(Policy.allows(S, Alien));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
