//===- core/Runner.cpp -----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/Runner.h"

#include "support/Barrier.h"
#include "support/Timer.h"

#include <cassert>
#include <ctime>
#include <memory>
#include <sched.h>
#include <thread>

namespace {
/// CPU time consumed by the calling thread, in seconds.
double threadCpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}
} // namespace

using namespace gstm;

unsigned gstm::usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw > 0 ? Hw : 1;
}

unsigned gstm::forcedYieldShift(unsigned Shift, unsigned Threads,
                                unsigned Cpus) {
  return Threads > Cpus ? Shift : 0;
}

RunResult gstm::runWorkloadOnce(TlWorkload &Workload,
                                const RunnerConfig &Config, uint64_t Seed,
                                const GuidedPolicy *Policy) {
  assert(Config.Threads > 0 && "need at least one worker");
  // Stats shards alias past StatsShardCount threads (the shard index is
  // masked), and the controller's live-worker mask holds one bit each.
  assert(Config.Threads <= StatsShardCount && "at most 64 workers");

  // A forced yield only interleaves workers that share a CPU.
  Tl2Config StmCfg = Config.Stm;
  StmCfg.PreemptShift =
      forcedYieldShift(Config.Stm.PreemptShift, Config.Threads);
  Tl2Stm Stm(StmCfg);
  TraceCollector Collector(Config.Threads);
  std::unique_ptr<GuideController> Controller;

  TxEventObserver *Downstream =
      Config.CollectTrace ? &Collector : nullptr;
  if (Policy) {
    Controller =
        std::make_unique<GuideController>(*Policy, Config.Guide, Downstream);
    if (Config.Learner)
      Controller->setTtsSink(Config.Learner);
    Stm.setObserver(Controller.get());
    Stm.setGate(Controller.get());
  } else {
    Stm.setObserver(Downstream);
  }

  Workload.setup(Stm, Config.Threads, Seed);

  RunResult Result;
  Result.ThreadSeconds.assign(Config.Threads, 0.0);

  Barrier Start(Config.Threads + 1);
  std::vector<std::thread> Workers;
  Workers.reserve(Config.Threads);
  for (unsigned T = 0; T < Config.Threads; ++T) {
    Workers.emplace_back([&, T] {
      Start.arriveAndWait();
      double CpuStart = threadCpuSeconds();
      Workload.threadBody(Stm, static_cast<ThreadId>(T));
      Result.ThreadSeconds[T] = threadCpuSeconds() - CpuStart;
      // A finished worker commits nothing more, so starts held after this
      // must not wait for it.
      if (Controller)
        Controller->onThreadExit(static_cast<ThreadId>(T));
    });
  }

  Timer WallTimer;
  Start.arriveAndWait();
  for (std::thread &W : Workers)
    W.join();
  Result.WallSeconds = WallTimer.elapsedSeconds();

  // Workers have joined, so the shard aggregate is exact.
  Result.Telemetry = Stm.stats().aggregate();
  Result.Commits = Result.Telemetry.Commits;
  Result.Aborts = Result.Telemetry.Aborts;
  Result.ThreadTelemetry.reserve(Config.Threads);
  for (unsigned T = 0; T < Config.Threads && T < ShardedStats::numShards();
       ++T)
    Result.ThreadTelemetry.push_back(
        Stm.stats().snapshotShard(static_cast<size_t>(T)));
  if (Config.CollectTrace) {
    Result.ThreadHists = Collector.abortHistograms();
    Result.Tuples = groupTuples(Collector.takeTrace(), Config.GroupMode);
  }
  if (Controller)
    Result.Guide = Controller->stats();

  Result.Verified = Workload.verify(Stm);
  Workload.teardown();
  return Result;
}
