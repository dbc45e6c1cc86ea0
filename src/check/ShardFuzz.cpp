//===- check/ShardFuzz.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/ShardFuzz.h"

#include "check/Perturb.h"
#include "shard/Sharded.h"
#include "stm/TVar.h"
#include "support/Barrier.h"

#include <sstream>
#include <thread>

using namespace gstm;

namespace {

/// Cross-shard writer commits the plan analytically requires under the
/// round-robin placement: one per transaction whose write variables span
/// >= 2 shards. Every planned transaction commits exactly once and its
/// commit-time write mask is exactly its write variables' home shards, so
/// the runtime's CrossShardCommits counter must match this — the plan
/// predicts the telemetry, not just the final state.
uint64_t expectedCrossShardCommits(const FuzzPlan &Plan,
                                   unsigned ShardCount) {
  uint64_t Cross = 0;
  for (const auto &Txns : Plan.PerThread)
    for (const FuzzTxn &T : Txns) {
      uint64_t Mask = 0;
      for (const FuzzOp &Op : T.Ops)
        if (Op.IsWrite)
          Mask |= uint64_t{1} << (Op.Var % ShardCount);
      if ((Mask & (Mask - 1)) != 0)
        ++Cross;
    }
  return Cross;
}

} // namespace

ShardFuzzResult gstm::runShardFuzzIteration(uint64_t Seed,
                                            const ShardFuzzConfig &Cfg,
                                            bool Serial) {
  // Same plan space as the rmw workload: unique deltas, analytic final
  // state. Only the runtime underneath differs.
  FuzzConfig PlanCfg;
  PlanCfg.Threads = Cfg.Threads;
  PlanCfg.TxnsPerThread = Cfg.TxnsPerThread;
  PlanCfg.Vars = Cfg.Vars;
  PlanCfg.MaxOpsPerTxn = Cfg.MaxOpsPerTxn;
  FuzzPlan Plan = makeFuzzPlan(Seed, PlanCfg);

  ShardFuzzResult R;
  R.Expected = Plan.expectedFinal();
  R.ExpectedCrossShardCommits =
      expectedCrossShardCommits(Plan, Cfg.ShardCount);

  ShardConfig SC;
  SC.ShardCount = Cfg.ShardCount;
  SC.LockTableBits = 10; // small tables: deliberate stripe aliasing
  SC.PreemptShift = Cfg.PreemptShift;
  SC.Fault = Cfg.Fault;
  ShardedStm Stm(SC);

  std::vector<TVar<uint64_t>> Cells(Cfg.Vars);
  for (unsigned V = 0; V < Cfg.Vars; ++V)
    Cells[V].storeDirect(Plan.Initial[V]);

  // Round-robin explicit placement: variable v's home is shard
  // v % ShardCount regardless of the address hash, so which transactions
  // cross shards is a property of the plan, not of where the vector
  // landed in memory.
  ShardPlacement Placement;
  for (unsigned V = 0; V < Cfg.Vars; ++V)
    Placement.addRange(&Cells[V], &Cells[V] + 1, V % Cfg.ShardCount);
  Placement.finalize();
  Stm.setPlacement(&Placement);

  const unsigned RecThreads = Serial ? 1 : Cfg.Threads;
  HistoryRecorder Rec(RecThreads);
  for (unsigned V = 0; V < Cfg.Vars; ++V)
    Rec.noteInitial(&Cells[V].word(), Plan.Initial[V]);
  SchedulePerturber Perturb(RecThreads, Seed, &Rec, Cfg.PerturbShift);
  Stm.setAccessObserver(Serial ? static_cast<TxAccessObserver *>(&Rec)
                               : &Perturb);
  Stm.setObserver(&Rec);

  auto Body = [&](const FuzzTxn &T) {
    return [&Cells, &T](ShardedTxn &Tx) {
      for (const FuzzOp &Op : T.Ops) {
        uint64_t V = Tx.load(Cells[Op.Var]);
        if (Op.IsWrite)
          Tx.store(Cells[Op.Var], V + Op.Delta);
      }
    };
  };

  if (Serial) {
    ShardedTxn Txn(Stm, 0);
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      for (size_t K = 0; K < Plan.PerThread[T].size(); ++K)
        Txn.run(static_cast<TxId>(K), Body(Plan.PerThread[T][K]));
  } else {
    // Workers start together, as in the word runners (check/Fuzz.cpp).
    Barrier Start(Cfg.Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      Workers.emplace_back([&, T] {
        ShardedTxn Txn(Stm, T);
        Start.arriveAndWait();
        const std::vector<FuzzTxn> &Txns = Plan.PerThread[T];
        for (size_t K = 0; K < Txns.size(); ++K)
          Txn.run(static_cast<TxId>(K), Body(Txns[K]));
      });
    for (std::thread &W : Workers)
      W.join();
  }

  Stm.setAccessObserver(nullptr);
  Stm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();

  for (unsigned V = 0; V < Cfg.Vars; ++V)
    R.Final.push_back(Cells[V].loadDirect());

  std::string ResidueMsg;
  lockTableQuiescent(Stm.lockTable(), &ResidueMsg);

  StatsSnapshot Agg = Stm.stats().aggregate();
  R.CrossShardCommits = Agg.CrossShardCommits;
  R.CrossShardAborts = Agg.CrossShardAborts;
  R.PrepareRetries = Agg.PrepareRetries;

  History H = Rec.take();
  R.Attempts = H.Attempts.size();
  R.Committed = H.committedCount();
  R.Check = checkAll(H, Cfg.Checker);

  const size_t ExpectedCommits = size_t{Cfg.Threads} * Cfg.TxnsPerThread;
  std::ostringstream Err;
  if (R.Check.violation())
    Err << "checker: " << R.Check.Reason;
  else if (!ResidueMsg.empty())
    Err << "lock-residue: " << ResidueMsg;
  else if (R.Final != R.Expected) {
    size_t V = 0;
    while (V < R.Final.size() && R.Final[V] == R.Expected[V])
      ++V;
    Err << "final-state: var " << V << " = " << R.Final[V] << ", expected "
        << R.Expected[V];
  } else if (R.Committed != ExpectedCommits)
    Err << "accounting: " << R.Committed << " commits recorded, expected "
        << ExpectedCommits;
  else if (!Agg.consistent())
    Err << "accounting: stats breakdowns inconsistent with totals";
  else if (R.CrossShardCommits != R.ExpectedCrossShardCommits)
    Err << "coverage: " << R.CrossShardCommits
        << " cross-shard commits recorded, plan requires "
        << R.ExpectedCrossShardCommits;
  R.Error = Err.str();
  return R;
}

ShardDifferentialResult
gstm::runShardDifferential(uint64_t Seed, const ShardFuzzConfig &Cfg) {
  ShardDifferentialResult D;
  std::ostringstream Err;

  ShardFuzzResult Sharded = runShardFuzzIteration(Seed, Cfg);
  if (!Sharded.passed())
    Err << "sharded: " << Sharded.Error;
  D.PerVariant.emplace_back("sharded", std::move(Sharded));

  // shards=1 degenerate: the same chassis with every variable homed on
  // the single context — must behave exactly like unsharded TL2.
  ShardFuzzConfig One = Cfg;
  One.ShardCount = 1;
  ShardFuzzResult Single = runShardFuzzIteration(Seed, One);
  if (!Single.passed() && Err.str().empty())
    Err << "sharded-1: " << Single.Error;
  D.PerVariant.emplace_back("sharded-1", std::move(Single));

  ShardFuzzResult Ref = runShardFuzzIteration(Seed, Cfg, /*Serial=*/true);
  if (!Ref.passed() && Err.str().empty())
    Err << "ref: " << Ref.Error;
  D.PerVariant.emplace_back("ref", std::move(Ref));

  if (Err.str().empty())
    for (size_t I = 1; I < D.PerVariant.size(); ++I)
      if (D.PerVariant[I].second.Final != D.PerVariant[0].second.Final) {
        Err << "divergence: " << D.PerVariant[I].first
            << " disagrees with " << D.PerVariant[0].first
            << " on the final state";
        break;
      }
  D.Error = Err.str();
  return D;
}
