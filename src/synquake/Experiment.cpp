//===- synquake/Experiment.cpp ---------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "synquake/Experiment.h"

#include "core/GuidedPolicy.h"
#include "core/Runner.h"
#include "core/Trace.h"
#include "stm/Perturb.h"
#include "support/Timer.h"

#include <memory>
#include <optional>

using namespace gstm;

namespace {

struct OneRun {
  std::vector<double> FrameSeconds;
  std::vector<StateTuple> Tuples;
  double TotalSeconds = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  GuideStats Guide;
  bool Verified = true;
};

OneRun runGameOnce(const SynQuakeParams &Params, unsigned Threads,
                   uint64_t Seed, const GuidedPolicy *Policy,
                   const GuideConfig &GuideCfg) {
  LibTm Tm;
  // Forced yields under the TL2 runs' rule: only while the workers
  // outnumber the usable CPUs.
  std::optional<SchedulePerturber> Yields;
  if (unsigned Shift = forcedYieldShift(ExperimentYieldShift, Threads)) {
    Yields.emplace(Threads, Seed, nullptr, Shift);
    Tm.setAccessObserver(&*Yields);
  }
  TraceCollector Collector(Threads);
  std::unique_ptr<GuideController> Controller;
  if (Policy) {
    Controller =
        std::make_unique<GuideController>(*Policy, GuideCfg, &Collector);
    Tm.setObserver(Controller.get());
    Tm.setGate(Controller.get());
  } else {
    Tm.setObserver(&Collector);
  }

  SynQuakeGame Game(Params);
  Game.setup(Tm, Threads, Seed);

  OneRun R;
  Timer Wall;
  R.FrameSeconds = Game.run(Tm, Threads);
  R.TotalSeconds = Wall.elapsedSeconds();
  R.Commits = Tm.stats().commits();
  R.Aborts = Tm.stats().aborts();
  R.Tuples = groupTuples(Collector.takeTrace(), Grouping::Sequence);
  if (Controller)
    R.Guide = Controller->stats();
  R.Verified = Game.verify();
  return R;
}

void addRunToSide(SynQuakeSide &Side, const OneRun &R) {
  RunningStat Frames;
  for (double F : R.FrameSeconds)
    Frames.add(F);
  // Trim the extreme 5% of frames: on a shared host, rare multi-ms
  // scheduler stalls hit individual frames and would swamp the
  // STM-induced spread the experiment measures.
  Side.FrameStddev.add(Frames.trimmedStddev(0.05));
  Side.FrameMean.add(Frames.mean());
  Side.TotalSeconds.add(R.TotalSeconds);
  Side.Commits += R.Commits;
  Side.Aborts += R.Aborts;
  Side.Guide.merge(R.Guide);
  Side.AllVerified = Side.AllVerified && R.Verified;
}

} // namespace

SynQuakeExperimentResult
gstm::runSynQuakeExperiment(const SynQuakeExperimentConfig &Config) {
  SynQuakeExperimentResult Result;

  // Train on the two paper training quests.
  const QuestPattern TrainQuests[2] = {QuestPattern::WorstCase4,
                                       QuestPattern::Moving4};
  uint64_t Seed = Config.ProfileSeedBase;
  for (QuestPattern Quest : TrainQuests)
    for (unsigned Run = 0; Run < Config.ProfileRunsPerQuest; ++Run) {
      SynQuakeParams Train = Config.Game;
      Train.Quest = Quest;
      Train.Frames = Config.TrainFrames;
      OneRun R = runGameOnce(Train, Config.Threads, ++Seed,
                             /*Policy=*/nullptr, Config.Guide);
      Result.Model.addRun(R.Tuples);
    }

  Result.Report = analyzeModel(Result.Model, {.Tfactor = Config.Tfactor});

  // Measurement: the same input (fixed seed) replayed with interleaved
  // default/guided runs, so run-to-run spread is speculation
  // non-determinism rather than input or host drift (see
  // core/Experiment.cpp for the rationale).
  GuidedPolicy Policy(Result.Model, Config.Tfactor);
  runGameOnce(Config.Game, Config.Threads, Config.MeasureSeedBase,
              /*Policy=*/nullptr, Config.Guide); // warm-up
  for (unsigned Run = 0; Run < Config.MeasureRuns; ++Run) {
    addRunToSide(Result.Default,
                 runGameOnce(Config.Game, Config.Threads,
                             Config.MeasureSeedBase, nullptr,
                             Config.Guide));
    addRunToSide(Result.Guided,
                 runGameOnce(Config.Game, Config.Threads,
                             Config.MeasureSeedBase, &Policy,
                             Config.Guide));
  }
  return Result;
}
