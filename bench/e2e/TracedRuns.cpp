//===- bench/e2e/TracedRuns.cpp -------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Each function below follows its original line for line (same objects,
// same call order, same random streams); the comments only mark what the
// copy adds. Keep them in step when the originals change.
//
//===----------------------------------------------------------------------===//

#include "TracedRuns.h"

#include "core/GuideController.h"
#include "shard/Sharded.h"
#include "shard/Steering.h"
#include "stm/TVar.h"
#include "support/Barrier.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "tmds/TmBTree.h"
#include "tmds/TmSkipList.h" // tmdsMix64

#include <chrono>
#include <cmath>
#include <ctime>
#include <memory>
#include <thread>

using namespace gstm;
using namespace gstm::e2e;

//===----------------------------------------------------------------------===//
// runWorkloadOnce (core/Runner.cpp), guided branch
//===----------------------------------------------------------------------===//

namespace {
double threadCpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}
} // namespace

RunResult e2e::runWorkloadOnceTraced(TlWorkload &Workload,
                                     const RunnerConfig &Config,
                                     uint64_t Seed, const GuidedPolicy &Policy,
                                     SpanLog &Spans, uint64_t Parent,
                                     int64_t Run,
                                     std::vector<LayerCounters> &Layers) {
  ScopedSpan RunSpan(&Spans, "core.run", Parent, Run);
  Tl2Stm Stm(Config.Stm);
  if (Config.Cm)
    Stm.setContentionManager(Config.Cm);
  TraceCollector Collector(Config.Threads);
  TxEventObserver *Downstream = Config.CollectTrace ? &Collector : nullptr;
  GuideController Controller(Policy, Config.Guide, Downstream);
  if (Config.Learner)
    Controller.setTtsSink(Config.Learner);

  // Added: the timing wrappers sit between the STM and the controller.
  Layers.assign(Config.Threads, LayerCounters());
  TimedObserver Observer(Controller, Layers);
  TimedGate Gate(Controller, Layers,
                 uint64_t{Config.Guide.GateSleepMicros} * 1000);
  Stm.setObserver(&Observer);
  Stm.setGate(&Gate);

  {
    ScopedSpan Setup(&Spans, "stamp.setup", RunSpan.id(), Run);
    Workload.setup(Stm, Config.Threads, Seed);
  }
  // Added: set-up transactions ran through the wrappers on thread 0;
  // only the thread bodies count.
  Layers.assign(Config.Threads, LayerCounters());

  RunResult Result;
  Result.ThreadSeconds.assign(Config.Threads, 0.0);

  Barrier Start(Config.Threads + 1);
  std::vector<std::thread> Workers;
  Workers.reserve(Config.Threads);
  for (unsigned T = 0; T < Config.Threads; ++T) {
    Workers.emplace_back([&, T] {
      Start.arriveAndWait();
      ScopedSpan Body(&Spans, "stamp.thread_body", RunSpan.id(), Run, T);
      double CpuStart = threadCpuSeconds();
      Workload.threadBody(Stm, static_cast<ThreadId>(T));
      Result.ThreadSeconds[T] = threadCpuSeconds() - CpuStart;
      Layers[T].BodyNs = static_cast<uint64_t>(Body.closeSpan() * 1e9);
    });
  }

  Timer WallTimer;
  Start.arriveAndWait();
  for (std::thread &W : Workers)
    W.join();
  Result.WallSeconds = WallTimer.elapsedSeconds();

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
  Result.Guide = Controller.stats();

  ScopedSpan Verify(&Spans, "stamp.verify", RunSpan.id(), Run);
  Result.Verified = Workload.verify(Stm);
  Workload.teardown();
  return Result;
}

//===----------------------------------------------------------------------===//
// runOltp (bench/OltpBench.cpp), TL2 B-tree, read/update mixes
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

class ZipfianGen {
public:
  ZipfianGen(uint64_t N, double Theta) : N(N), Theta(Theta) {
    if (Theta <= 0)
      return;
    Zetan = zeta(N, Theta);
    const double Zeta2 = zeta(2, Theta);
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
          (1.0 - Zeta2 / Zetan);
  }

  uint64_t next(SplitMix64 &Rng) const {
    if (Theta <= 0)
      return Rng.nextBounded(N);
    const double U = static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
    const double Uz = U * Zetan;
    if (Uz < 1.0)
      return 0;
    if (Uz < 1.0 + std::pow(0.5, Theta))
      return 1;
    uint64_t Rank = static_cast<uint64_t>(
        static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
    return Rank >= N ? N - 1 : Rank;
  }

private:
  static double zeta(uint64_t N, double Theta) {
    double Sum = 0;
    for (uint64_t I = 1; I <= N; ++I)
      Sum += 1.0 / std::pow(static_cast<double>(I), Theta);
    return Sum;
  }

  uint64_t N;
  double Theta;
  double Zetan = 0, Alpha = 0, Eta = 0;
};

uint64_t valueFor(uint64_t Key, uint64_t Salt) {
  return tmdsMix64(Key ^ (Salt * 0x9e3779b97f4a7c15ULL));
}

/// Counters accumulated between two snapshots of one runtime.
StatsSnapshot snapshotDelta(const StatsSnapshot &After,
                            const StatsSnapshot &Before) {
  StatsSnapshot D;
  D.Commits = After.Commits - Before.Commits;
  D.ReadOnlyCommits = After.ReadOnlyCommits - Before.ReadOnlyCommits;
  D.Aborts = After.Aborts - Before.Aborts;
  for (size_t I = 0; I < NumAbortCauses; ++I)
    D.AbortsByCause[I] = After.AbortsByCause[I] - Before.AbortsByCause[I];
  for (size_t I = 0; I < NumAbortSites; ++I)
    D.AbortsBySite[I] = After.AbortsBySite[I] - Before.AbortsBySite[I];
  for (size_t I = 0; I < RetryHistogramBuckets; ++I)
    D.RetryHistogram[I] = After.RetryHistogram[I] - Before.RetryHistogram[I];
  D.Attempts = After.Attempts - Before.Attempts;
  D.AttemptNanos = After.AttemptNanos - Before.AttemptNanos;
  D.CommitRingLookups = After.CommitRingLookups - Before.CommitRingLookups;
  D.CommitRingMisses = After.CommitRingMisses - Before.CommitRingMisses;
  D.CrossShardCommits = After.CrossShardCommits - Before.CrossShardCommits;
  D.CrossShardAborts = After.CrossShardAborts - Before.CrossShardAborts;
  D.PrepareRetries = After.PrepareRetries - Before.PrepareRetries;
  return D;
}

} // namespace

TracedOltp e2e::runOltpTraced(const OltpConfig &Cfg, SpanLog &Spans,
                              uint64_t Parent, int64_t Repeat) {
  using DS = TmBTree<Tl2Backend>;
  TracedOltp Out;
  OltpResult &R = Out.Base;
  if (Cfg.Structure != "btree" || Cfg.Backend != "tl2" || Cfg.Shards ||
      Cfg.Mix.ReadPct + Cfg.Mix.UpdatePct != 100 || Cfg.Threads == 0 ||
      Cfg.Records == 0 || Cfg.ArrivalRate > 0) {
    R.Error = "traced OLTP copy supports closed-loop tl2 btree read/update "
              "mixes only";
    return Out;
  }
  ScopedSpan Call(&Spans, "tmds.call", Parent, Repeat);

  Tl2Config C;
  if (Cfg.RingBits)
    C.CommitRingBits = Cfg.RingBits;
  C.TrackAttemptLatency = true; // added: feeds stm.attempt_ns_mean
  Tl2Stm Stm(C);

  typename DS::Pool Nodes(
      static_cast<uint32_t>(Cfg.Records + Cfg.Threads * 8 + 4096));
  DS Ds(Nodes);

  {
    ScopedSpan Load(&Spans, "tmds.load", Call.id(), Repeat);
    Tl2Txn Tx0(Stm, 0);
    uint64_t Next = 1;
    uint16_t Id = 0;
    while (Next <= Cfg.Records) {
      const uint64_t Lo = Next;
      const uint64_t Hi = std::min(Cfg.Records, Lo + 511);
      Tx0.run(static_cast<TxId>(Id++), [&](Tl2Txn &Tx) {
        for (uint64_t K = Lo; K <= Hi; ++K)
          Ds.insert(Tx, K, valueFor(K, 0));
      });
      Next = Hi + 1;
    }
    Out.LoadSeconds = Load.closeSpan();
  }

  const StatsSnapshot Before = Stm.stats().aggregate();
  ZipfianGen Zipf(Cfg.Records, Cfg.ZipfTheta);

  std::vector<LatencyHistogram> Hists(Cfg.Threads);
  // Added: per-operation-type histograms.
  std::vector<LatencyHistogram> ReadHists(Cfg.Threads);
  std::vector<LatencyHistogram> UpdateHists(Cfg.Threads);

  const Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Timed(&Spans, "tmds.timed", Call.id(), Repeat);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      Workers.emplace_back([&, T] {
        ScopedSpan Body(&Spans, "tmds.client", Timed.id(), Repeat, T);
        SplitMix64 Rng(Cfg.Seed * 0x9e3779b97f4a7c15ULL + T + 1);
        Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
        for (uint64_t I = T; I < Cfg.Operations; I += Cfg.Threads) {
          const bool IsRead = Rng.nextBounded(100) < Cfg.Mix.ReadPct;
          const uint64_t Key =
              1 + tmdsMix64(Zipf.next(Rng)) % Cfg.Records;
          const uint64_t Value = valueFor(Key, I + 1);
          const Clock::time_point Start = Clock::now();
          Txn.run(static_cast<TxId>(I), [&](Tl2Txn &Tx) {
            if (IsRead)
              Ds.find(Tx, Key);
            else
              Ds.update(Tx, Key, Value);
          });
          const uint64_t Ns = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Start)
                  .count());
          Hists[T].record(Ns);
          (IsRead ? ReadHists[T] : UpdateHists[T]).record(Ns);
        }
      });
    for (std::thread &W : Workers)
      W.join();
  }
  R.WallSeconds = std::chrono::duration<double>(Clock::now() - T0).count();

  for (unsigned T = 0; T < Cfg.Threads; ++T) {
    R.Latency.merge(Hists[T]);
    Out.ReadLatency.merge(ReadHists[T]);
    Out.UpdateLatency.merge(UpdateHists[T]);
  }
  R.Operations = R.Latency.count();

  const StatsSnapshot After = Stm.stats().aggregate();
  R.Commits = After.Commits - Before.Commits;
  R.Aborts = After.Aborts - Before.Aborts;
  R.CommitRingLookups = After.CommitRingLookups - Before.CommitRingLookups;
  R.CommitRingMisses = After.CommitRingMisses - Before.CommitRingMisses;
  // Added: the whole timed-phase snapshot, for the per-layer metrics.
  Out.Telemetry = snapshotDelta(After, Before);

  {
    ScopedSpan Verify(&Spans, "tmds.verify", Call.id(), Repeat);
    if (!Ds.validateDirect())
      R.Error = "structure validation failed after the run";
    else if (Ds.sizeDirect() != Cfg.Records)
      R.Error = "element accounting mismatch after the run";
  }
  R.Ok = R.Error.empty();
  Out.CallSeconds = Call.closeSpan();
  return Out;
}

//===----------------------------------------------------------------------===//
// runShardBench (bench/ShardBench.cpp)
//===----------------------------------------------------------------------===//

namespace {

struct Op {
  uint32_t Group;
  uint32_t CellA;
  uint32_t CellB;
  int32_t CrossGroup;
  uint32_t CrossCell;
};

std::vector<Op> makePlan(const ShardBenchConfig &Cfg, unsigned T,
                         uint64_t Count, uint64_t Salt,
                         uint64_t &Increments) {
  SplitMix64 Rng((Cfg.Seed + Salt) * 0x9e3779b97f4a7c15ULL + T + 1);
  std::vector<Op> Plan;
  Plan.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    Op O;
    O.Group = static_cast<uint32_t>(Rng.nextBounded(Cfg.Groups));
    O.CellA = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    do
      O.CellB = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    while (O.CellB == O.CellA);
    O.CrossGroup = -1;
    O.CrossCell = 0;
    if (Cfg.CrossPerMille && Rng.nextBounded(1000) < Cfg.CrossPerMille) {
      uint32_t H;
      do
        H = static_cast<uint32_t>(Rng.nextBounded(Cfg.Groups));
      while (H == O.Group);
      O.CrossGroup = static_cast<int32_t>(H);
      O.CrossCell = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    }
    Increments += O.CrossGroup >= 0 ? 3 : 2;
    Plan.push_back(O);
  }
  return Plan;
}

void runWindow(ShardedStm &Stm, TVar<uint64_t> *Cells,
               const ShardBenchConfig &Cfg, unsigned T,
               const std::vector<Op> &Plan,
               ShardedTxn::CommitListener *Listener) {
  ShardedTxn Txn(Stm, T);
  if (Listener)
    Txn.setCommitListener(Listener);
  for (const Op &O : Plan) {
    TVar<uint64_t> *Base = Cells + size_t{O.Group} * Cfg.CellsPerGroup;
    TVar<uint64_t> &A = Base[O.CellA];
    TVar<uint64_t> &B = Base[O.CellB];
    TVar<uint64_t> *X =
        O.CrossGroup >= 0
            ? Cells + size_t(O.CrossGroup) * Cfg.CellsPerGroup + O.CrossCell
            : nullptr;
    Txn.setAffinityGroup(O.Group);
    Txn.run(0, [&](ShardedTxn &Tx) {
      Tx.store(A, Tx.load(A) + 1);
      Tx.store(B, Tx.load(B) + 1);
      if (X)
        Tx.store(*X, Tx.load(*X) + 1);
    });
  }
}

void runAllThreads(ShardedStm &Stm, TVar<uint64_t> *Cells,
                   const ShardBenchConfig &Cfg,
                   const std::vector<std::vector<Op>> &Plans,
                   ShardedTxn::CommitListener *Listener, SpanLog &Spans,
                   uint64_t Parent, int64_t Repeat) {
  std::vector<std::thread> Workers;
  Workers.reserve(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      ScopedSpan Body(&Spans, "shard.thread_body", Parent, Repeat, T);
      runWindow(Stm, Cells, Cfg, T, Plans[T], Listener);
    });
  for (std::thread &W : Workers)
    W.join();
}

} // namespace

TracedShard e2e::runShardBenchTraced(const ShardBenchConfig &Cfg,
                                     SpanLog &Spans, uint64_t Parent,
                                     int64_t Repeat) {
  TracedShard Out;
  ShardBenchResult &R = Out.Base;
  if (!Cfg.Threads || !Cfg.Groups || Cfg.CellsPerGroup < 2 ||
      !Cfg.ShardCount || Cfg.ShardCount > MaxShardCount ||
      (Cfg.CrossPerMille && Cfg.Groups < 2)) {
    R.Ok = false;
    R.Error = "invalid shard bench configuration";
    return Out;
  }
  ScopedSpan Call(&Spans, "shard.call", Parent, Repeat);

  ShardConfig SC;
  SC.ShardCount = Cfg.ShardCount;
  SC.TrackAttemptLatency = true; // added: feeds stm.attempt_ns_mean
  ShardedStm Stm(SC);

  const size_t CellCount = size_t{Cfg.Groups} * Cfg.CellsPerGroup;
  std::unique_ptr<TVar<uint64_t>[]> Cells(new TVar<uint64_t>[CellCount]);

  uint64_t ExpectedIncrements = 0;
  std::vector<std::vector<Op>> MeasurePlans;
  MeasurePlans.reserve(Cfg.Threads);
  {
    ScopedSpan Plan(&Spans, "shard.plan", Call.id(), Repeat);
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      MeasurePlans.push_back(
          makePlan(Cfg, T, Cfg.OpsPerThread, /*Salt=*/2, ExpectedIncrements));
  }

  ShardSteering Steering(Cfg.Threads, Cfg.ShardCount);
  ShardPlacement Learned;
  if (Cfg.Steering) {
    for (unsigned G = 0; G < Cfg.Groups; ++G) {
      TVar<uint64_t> *Base = Cells.get() + size_t{G} * Cfg.CellsPerGroup;
      Steering.registerGroup(G, Base, Base + Cfg.CellsPerGroup);
    }
    {
      // Added: the warm-up span covers its plan and its learning window.
      ScopedSpan Warm(&Spans, "shard.steer.warmup", Call.id(), Repeat);
      std::vector<std::vector<Op>> WarmPlans;
      WarmPlans.reserve(Cfg.Threads);
      for (unsigned T = 0; T < Cfg.Threads; ++T)
        WarmPlans.push_back(makePlan(Cfg, T, Cfg.WarmupOpsPerThread,
                                     /*Salt=*/1, ExpectedIncrements));
      runAllThreads(Stm, Cells.get(), Cfg, WarmPlans, &Steering, Spans,
                    Warm.id(), Repeat);
      Steering.drain();
      Out.WarmupSeconds = Warm.closeSpan();
    }
    {
      ScopedSpan Build(&Spans, "shard.steer.build_placement", Call.id(),
                       Repeat);
      Learned = Steering.buildPlacement();
      Out.BuildPlacementSeconds = Build.closeSpan();
    }
    {
      ScopedSpan Install(&Spans, "shard.steer.install", Call.id(), Repeat);
      Stm.setPlacement(&Learned);
      Out.InstallSeconds = Install.closeSpan();
    }
    Stm.stats().reset();
  }

  {
    ScopedSpan Timed(&Spans, "shard.timed", Call.id(), Repeat);
    auto Start = std::chrono::steady_clock::now();
    runAllThreads(Stm, Cells.get(), Cfg, MeasurePlans, nullptr, Spans,
                  Timed.id(), Repeat);
    auto End = std::chrono::steady_clock::now();
    R.WallSeconds = std::chrono::duration<double>(End - Start).count();
  }
  R.Operations = uint64_t{Cfg.Threads} * Cfg.OpsPerThread;

  StatsSnapshot Agg = Stm.stats().aggregate();
  R.Commits = Agg.Commits;
  R.Aborts = Agg.Aborts;
  R.CrossShardCommits = Agg.CrossShardCommits;
  R.PrepareRetries = Agg.PrepareRetries;
  Out.Telemetry = Agg;

  {
    ScopedSpan Verify(&Spans, "shard.verify", Call.id(), Repeat);
    uint64_t Sum = 0;
    for (size_t I = 0; I < CellCount; ++I)
      Sum += Cells[I].loadDirect();
    if (Sum != ExpectedIncrements) {
      R.Ok = false;
      R.Error = "cell sum " + std::to_string(Sum) + " != expected " +
                std::to_string(ExpectedIncrements);
    }
  }
  Out.CallSeconds = Call.closeSpan();
  return Out;
}
