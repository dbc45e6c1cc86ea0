//===- tests/synquake_test.cpp - SynQuake game substrate tests --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stm/Perturb.h"
#include "synquake/Experiment.h"
#include "synquake/Game.h"

#include <gtest/gtest.h>

using namespace gstm;

namespace {
SynQuakeParams smallParams(QuestPattern Quest) {
  SynQuakeParams P;
  P.NumPlayers = 48;
  P.Frames = 12;
  P.Quest = Quest;
  return P;
}
} // namespace

TEST(QuestPatternTest, NameRoundTrip) {
  for (QuestPattern Q :
       {QuestPattern::WorstCase4, QuestPattern::Moving4,
        QuestPattern::Quadrants4, QuestPattern::CenterSpread6}) {
    QuestPattern Back{};
    EXPECT_TRUE(questPatternFromName(questPatternName(Q), Back));
    EXPECT_EQ(Back, Q);
  }
  // An unknown name is refused, not mapped to 4quadrants.
  QuestPattern Unknown{};
  EXPECT_FALSE(questPatternFromName("center", Unknown));
}

TEST(SynQuakeTest, RunsAndConservesInvariants) {
  for (QuestPattern Q :
       {QuestPattern::WorstCase4, QuestPattern::Moving4,
        QuestPattern::Quadrants4, QuestPattern::CenterSpread6}) {
    LibTm Tm;
    SynQuakeGame Game(smallParams(Q));
    Game.setup(Tm, /*NumThreads=*/4, /*Seed=*/7);
    std::vector<double> Frames = Game.run(Tm, 4);
    EXPECT_EQ(Frames.size(), 12u);
    for (double F : Frames)
      EXPECT_GE(F, 0.0);
    EXPECT_TRUE(Game.verify()) << questPatternName(Q);
  }
}

TEST(SynQuakeTest, SingleThreadBaseline) {
  LibTm Tm;
  SynQuakeGame Game(smallParams(QuestPattern::Quadrants4));
  Game.setup(Tm, 1, 3);
  Game.run(Tm, 1);
  EXPECT_TRUE(Game.verify());
  EXPECT_EQ(Tm.stats().aborts(), 0u)
      << "one thread can never conflict";
}

TEST(SynQuakeTest, PlayersScoreNearQuests) {
  LibTm Tm;
  SynQuakeParams P = smallParams(QuestPattern::WorstCase4);
  P.Frames = 40; // enough frames for everyone to reach the quest
  SynQuakeGame Game(P);
  Game.setup(Tm, 2, 9);
  Game.run(Tm, 2);
  EXPECT_TRUE(Game.verify());
  EXPECT_GT(Game.totalScoreDirect(), 0u)
      << "players converging on a quest must pick up resources";
}

TEST(SynQuakeTest, WorstCaseQuestContendsMoreThanQuadrants) {
  // The quest patterns exist precisely to modulate contention: all
  // players on one point must conflict more than players split across
  // four quadrants.
  auto AbortsFor = [](QuestPattern Q) {
    LibTm Tm;
    // Force transaction overlap on few cores.
    SchedulePerturber Yields(/*NumThreads=*/4, /*Seed=*/5, nullptr,
                             /*YieldShift=*/5);
    Tm.setAccessObserver(&Yields);
    SynQuakeParams P;
    P.NumPlayers = 64;
    P.Frames = 30;
    P.Quest = Q;
    SynQuakeGame Game(P);
    Game.setup(Tm, 4, 5);
    Game.run(Tm, 4);
    EXPECT_TRUE(Game.verify());
    return Tm.stats().aborts();
  };
  uint64_t WorstCase = AbortsFor(QuestPattern::WorstCase4);
  uint64_t Quadrants = AbortsFor(QuestPattern::Quadrants4);
  EXPECT_GT(WorstCase, Quadrants / 2)
      << "worst-case quest should be at least comparably contended";
}

TEST(SynQuakeTest, GateHooksAreExercised) {
  struct CountingGate : StartGate {
    std::atomic<uint64_t> Calls{0};
    void onTxStart(ThreadId, TxId) override { Calls.fetch_add(1); }
  } Gate;

  LibTm Tm;
  Tm.setGate(&Gate);
  SynQuakeGame Game(smallParams(QuestPattern::Moving4));
  Game.setup(Tm, 2, 11);
  Game.run(Tm, 2);
  // Two transactions per player per frame, plus retries.
  EXPECT_GE(Gate.Calls.load(), uint64_t{48} * 12 * 2);
}

TEST(SynQuakeExperimentTest, GuidedSideCountsGateRetries) {
  // Tfactor 1 admits only each state's most probable successors, so the
  // guided side holds threads; every hold re-checks the gate at least
  // once unless the all-held rule releases it first, and a forced
  // release re-checks it MaxGateRetries times.
  SynQuakeExperimentConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Game = smallParams(QuestPattern::Quadrants4);
  Cfg.TrainFrames = 12;
  Cfg.ProfileRunsPerQuest = 1;
  Cfg.MeasureRuns = 2;
  Cfg.Tfactor = 1.0;
  SynQuakeExperimentResult R = runSynQuakeExperiment(Cfg);
  const GuideStats &G = R.Guided.Guide;
  ASSERT_GT(G.Holds, 0u) << "the guided side held no thread";
  EXPECT_GE(G.GateRetries + G.AllHeldReleases, G.Holds);
  EXPECT_GE(G.GateRetries, G.ForcedReleases * Cfg.Guide.MaxGateRetries);
  EXPECT_TRUE(R.Default.AllVerified && R.Guided.AllVerified);
}
