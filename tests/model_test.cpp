//===- tests/model_test.cpp - TTS / TSA / analyzer / policy tests ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/GuidedPolicy.h"
#include "core/Trace.h"
#include "core/Tsa.h"
#include "core/Tts.h"
#include "model/Serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace gstm;

namespace {

StateTuple makeTuple(TxId CommitTx, ThreadId CommitThread,
                     std::initializer_list<std::pair<TxId, ThreadId>>
                         Aborts = {}) {
  StateTuple S;
  S.Commit = packPair(CommitTx, CommitThread);
  for (auto [Tx, T] : Aborts)
    S.Aborts.push_back(packPair(Tx, T));
  S.canonicalize();
  return S;
}

TraceEvent commitEvent(uint64_t Seq, ThreadId Thread, TxId Tx) {
  TraceEvent E;
  E.Seq = Seq;
  E.Thread = Thread;
  E.Tx = Tx;
  E.IsCommit = true;
  return E;
}

TraceEvent abortEvent(uint64_t Seq, ThreadId Thread, TxId Tx) {
  TraceEvent E;
  E.Seq = Seq;
  E.Thread = Thread;
  E.Tx = Tx;
  E.IsCommit = false;
  return E;
}

} // namespace

TEST(StateTupleTest, CanonicalizeSortsAndDedupes) {
  StateTuple S;
  S.Commit = packPair(3, 0);
  S.Aborts = {packPair(2, 5), packPair(1, 1), packPair(2, 5)};
  S.canonicalize();
  EXPECT_EQ(S.Aborts.size(), 2u);
  EXPECT_LT(S.Aborts[0], S.Aborts[1]);
}

TEST(StateTupleTest, EqualityAndHashAgree) {
  StateTuple A = makeTuple(3, 7, {{0, 1}, {1, 2}});
  StateTuple B = makeTuple(3, 7, {{1, 2}, {0, 1}}); // different order
  StateTuple C = makeTuple(3, 7, {{0, 1}});
  EXPECT_EQ(A, B);
  EXPECT_EQ(StateTupleHash{}(A), StateTupleHash{}(B));
  EXPECT_FALSE(A == C);
}

TEST(StateTupleTest, FormatMatchesPaperNotation) {
  // Paper example: thread 4 commits d, aborting threads 1, 2, 3 running
  // a, b, c -> {<a1 b2 c3>, <d4>}.
  StateTuple S = makeTuple(3, 4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(S.format(), "{<a1 b2 c3>, <d4>}");
  StateTuple Solo = makeTuple(2, 3);
  EXPECT_EQ(Solo.format(), "{<c3>}");
}

TEST(TraceCollectorTest, CollectsAndOrders) {
  TraceCollector C(2);
  C.onCommit(CommitEvent{0, 1, 10, 0});
  C.onAbort(AbortEvent{1, 2, AbortCauseKind::UnknownCommitter, 0, 0});
  C.onCommit(CommitEvent{1, 2, 11, 1});
  auto Trace = C.takeTrace();
  ASSERT_EQ(Trace.size(), 3u);
  for (size_t I = 1; I < Trace.size(); ++I)
    EXPECT_LT(Trace[I - 1].Seq, Trace[I].Seq);
}

TEST(TraceCollectorTest, AbortHistogramsFromPriorAborts) {
  TraceCollector C(2);
  C.onCommit(CommitEvent{0, 0, 1, 0});
  C.onCommit(CommitEvent{0, 0, 2, 3});
  C.onCommit(CommitEvent{1, 0, 3, 3});
  auto Hists = C.abortHistograms();
  ASSERT_EQ(Hists.size(), 2u);
  EXPECT_EQ(Hists[0].frequency(0), 1u);
  EXPECT_EQ(Hists[0].frequency(3), 1u);
  EXPECT_EQ(Hists[1].frequency(3), 1u);
}

TEST(GroupingTest, SequenceModeAttachesPrecedingAborts) {
  std::vector<TraceEvent> Trace = {
      abortEvent(0, 1, 0), abortEvent(1, 2, 1), commitEvent(2, 0, 0),
      commitEvent(3, 3, 1), abortEvent(4, 0, 0), // trailing abort dropped
  };
  auto Tuples = groupTuples(Trace, Grouping::Sequence);
  ASSERT_EQ(Tuples.size(), 2u);
  EXPECT_EQ(Tuples[0], makeTuple(0, 0, {{0, 1}, {1, 2}}));
  EXPECT_EQ(Tuples[1], makeTuple(1, 3));

  // An abort logged after a commit goes to the next commit, even when an
  // earlier commit caused it.
  Trace = {
      commitEvent(0, 0, 0),
      commitEvent(1, 3, 1),
      abortEvent(2, 1, 2),
      commitEvent(3, 1, 2),
  };
  Tuples = groupTuples(Trace, Grouping::Sequence);
  ASSERT_EQ(Tuples.size(), 3u);
  EXPECT_EQ(Tuples[0], makeTuple(0, 0));
  EXPECT_EQ(Tuples[2], makeTuple(2, 1, {{2, 1}}));
}

TEST(TsaTest, CountsStatesAndTransitions) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(1, 1), C = makeTuple(2, 2);
  Model.addRun({A, B, A, B, C});
  EXPECT_EQ(Model.numStates(), 3u);
  EXPECT_EQ(Model.numTransitions(), 4u);

  auto AId = Model.lookup(A);
  ASSERT_TRUE(AId.has_value());
  auto Succ = Model.successors(*AId);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_DOUBLE_EQ(Succ[0].Probability, 1.0);
}

TEST(TsaTest, ProbabilitiesNormalizePerState) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(1, 1), C = makeTuple(2, 2);
  // A -> B three times, A -> C once.
  Model.addRun({A, B, A, B, A, B, A, C});
  auto AId = *Model.lookup(A);
  auto Succ = Model.successors(AId);
  ASSERT_EQ(Succ.size(), 2u);
  EXPECT_DOUBLE_EQ(Succ[0].Probability, 0.75);
  EXPECT_DOUBLE_EQ(Succ[1].Probability, 0.25);
  double Sum = 0;
  for (auto &E : Succ)
    Sum += E.Probability;
  EXPECT_DOUBLE_EQ(Sum, 1.0);
}

TEST(TsaTest, NoTransitionAcrossRuns) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(1, 1);
  Model.addRun({A});
  Model.addRun({B});
  EXPECT_EQ(Model.numStates(), 2u);
  EXPECT_EQ(Model.numTransitions(), 0u);
}

TEST(TsaTest, SaveLoadRoundTrip) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0, {{1, 1}});
  StateTuple B = makeTuple(1, 1);
  StateTuple C = makeTuple(2, 5, {{0, 3}, {1, 4}});
  Model.addRun({A, B, C, A, B, A});

  std::string Path = ::testing::TempDir() + "/gstm_tsa_roundtrip.json";
  ASSERT_EQ(saveModel(Model, Path), ModelIoStatus::Ok);
  ModelLoadResult Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(Loaded.Model->numStates(), Model.numStates());
  EXPECT_EQ(Loaded.Model->numTransitions(), Model.numTransitions());
  for (StateId S = 0; S < Model.numStates(); ++S) {
    auto Orig = Model.successors(S);
    auto Copy = Loaded.Model->successors(S);
    ASSERT_EQ(Orig.size(), Copy.size());
    for (size_t I = 0; I < Orig.size(); ++I) {
      EXPECT_EQ(Orig[I].Dest, Copy[I].Dest);
      EXPECT_EQ(Orig[I].Count, Copy[I].Count);
    }
  }
  std::remove(Path.c_str());
}

TEST(TsaTest, LoadRejectsGarbage) {
  std::string Path = ::testing::TempDir() + "/gstm_tsa_garbage.json";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "not a model";
  }
  EXPECT_EQ(loadModel(Path).Status, ModelIoStatus::Corrupt);
  EXPECT_EQ(loadModel("/nonexistent/path/x.json").Status,
            ModelIoStatus::FileNotFound);
  // A directory is refused with a status, not an exception.
  EXPECT_NE(loadModel(::testing::TempDir()).Status, ModelIoStatus::Ok);
  std::remove(Path.c_str());
}

TEST(AnalyzerTest, HighProbabilitySuccessorsThreshold) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(1, 1), C = makeTuple(2, 2),
             D = makeTuple(3, 3);
  // From A: B x8, C x2, D x1 -> Pmax = 8/11. With Tfactor=4 the
  // threshold is 2/11: keeps B and C, drops D.
  Model.addRun({A, B, A, B, A, B, A, B, A, B, A, B, A, B, A, B,
                A, C, A, C, A, D});
  auto AId = *Model.lookup(A);
  auto Kept = highProbabilitySuccessors(Model, AId, 4.0);
  ASSERT_EQ(Kept.size(), 2u);
  EXPECT_EQ(Kept[0].Dest, *Model.lookup(B));
  EXPECT_EQ(Kept[1].Dest, *Model.lookup(C));

  // Tfactor=1 keeps only the top edge; a huge Tfactor keeps all.
  EXPECT_EQ(highProbabilitySuccessors(Model, AId, 1.0).size(), 1u);
  EXPECT_EQ(highProbabilitySuccessors(Model, AId, 100.0).size(), 3u);
}

TEST(AnalyzerTest, SkewedModelAcceptedUniformRejected) {
  // Skewed: hub states bounce between each other almost always, with a
  // fringe of rarely reached terminal states that guidance would prune.
  Tsa Skewed;
  StateTuple H1 = makeTuple(0, 0), H2 = makeTuple(1, 1);
  std::vector<StateTuple> Main;
  for (int I = 0; I < 50; ++I) {
    Main.push_back(H1);
    Main.push_back(H2);
  }
  Skewed.addRun(Main);
  for (int I = 0; I < 8; ++I)
    Skewed.addRun({H1, makeTuple(static_cast<TxId>(2 + I), 2)});
  AnalyzerReport SkewReport = analyzeModel(Skewed);
  EXPECT_LT(SkewReport.GuidanceMetricPercent, 50.0);
  EXPECT_TRUE(SkewReport.Optimizable);

  // Uniform: all successors equally likely (the ssca2 situation).
  Tsa Uniform;
  StateTuple S[4] = {makeTuple(0, 0), makeTuple(1, 1), makeTuple(2, 2),
                     makeTuple(3, 3)};
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 4; ++J)
      if (I != J)
        Uniform.addRun({S[I], S[J]});
  AnalyzerReport UniReport = analyzeModel(Uniform);
  EXPECT_DOUBLE_EQ(UniReport.GuidanceMetricPercent, 100.0);
  EXPECT_FALSE(UniReport.Optimizable);
}

TEST(AnalyzerTest, TinyModelRejected) {
  Tsa Model;
  Model.addRun({makeTuple(0, 0), makeTuple(1, 1)});
  AnalyzerConfig Cfg;
  Cfg.MinStates = 4;
  EXPECT_FALSE(analyzeModel(Model, Cfg).Optimizable);
}

namespace {

/// Six fully-connected states. With \p DominantCount >> 1, each state has
/// one high-probability successor and five rare ones the Tfactor
/// threshold prunes — |D(s)| = 1 of 5, a low (discriminating) metric.
/// With DominantCount == 1 every edge is equiprobable, |D(s)| =
/// |successors(s)| and the metric is 100 (the ssca2 shape).
Tsa denseModel(uint64_t DominantCount) {
  Tsa Model;
  std::vector<StateId> Ids;
  for (int S = 0; S < 6; ++S)
    Ids.push_back(Model.internState(makeTuple(static_cast<TxId>(S),
                                              static_cast<ThreadId>(S))));
  for (int S = 0; S < 6; ++S)
    for (int O = 0; O < 6; ++O) {
      if (O == S)
        continue;
      Model.addTransition(Ids[S], Ids[O],
                          O == (S + 1) % 6 ? DominantCount : 1);
    }
  return Model;
}

} // namespace

TEST(AnalyzerTest, MetricSeparatesBiasedFromUniform) {
  AnalyzerConfig AC;
  double Biased = analyzeModel(denseModel(200), AC).GuidanceMetricPercent;
  double Uniform = analyzeModel(denseModel(1), AC).GuidanceMetricPercent;
  EXPECT_LT(Biased, 40.0);
  EXPECT_GT(Uniform, 50.0);
}

TEST(GuidedPolicyTest, AllowsPairsOfHighProbabilityDestinations) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0);
  StateTuple B = makeTuple(1, 1, {{2, 3}}); // commit b1, abort c3
  StateTuple D = makeTuple(3, 4);
  // A -> B dominant (x9), A -> D rare (x1).
  std::vector<StateTuple> Run;
  for (int I = 0; I < 9; ++I) {
    Run.push_back(A);
    Run.push_back(B);
  }
  Run.push_back(A);
  Run.push_back(D);
  Model.addRun(Run);

  GuidedPolicy Policy(Model, /*Tfactor=*/4.0);
  StateId AId = Policy.resolve(A);
  ASSERT_NE(AId, UnknownState);

  // Pairs in B (commit and abort) are allowed; D's commit pair is not.
  EXPECT_TRUE(Policy.allows(AId, packPair(1, 1)));
  EXPECT_TRUE(Policy.allows(AId, packPair(2, 3)));
  EXPECT_FALSE(Policy.allows(AId, packPair(3, 4)));
  // Unknown current state always allows.
  EXPECT_TRUE(Policy.allows(UnknownState, packPair(3, 4)));
}

TEST(GuidedPolicyTest, ResolveUnknownTuple) {
  Tsa Model;
  Model.addRun({makeTuple(0, 0), makeTuple(1, 1)});
  GuidedPolicy Policy(Model, 4.0);
  EXPECT_EQ(Policy.resolve(makeTuple(9, 9)), UnknownState);
}

TEST(GuidedPolicyTest, StateWithoutTransitionsAllowsEverything) {
  Tsa Model;
  StateTuple A = makeTuple(0, 0), B = makeTuple(1, 1);
  Model.addRun({A, B}); // B is terminal: no outbound edges
  GuidedPolicy Policy(Model, 4.0);
  StateId BId = Policy.resolve(B);
  EXPECT_TRUE(Policy.allows(BId, packPair(7, 7)));
}
