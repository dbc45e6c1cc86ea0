//===- check/Fuzz.cpp ------------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"

#include "check/Perturb.h"
#include "engine/Engines.h"
#include "libtm/LibTm.h"
#include "stm/TVar.h"
#include "support/Barrier.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>
#include <thread>

using namespace gstm;

const char *gstm::fuzzBackendName(FuzzBackend B) {
  switch (B) {
  case FuzzBackend::Tl2Lazy:
    return "tl2-lazy";
  case FuzzBackend::LibTm:
    return "libtm";
  case FuzzBackend::OrecEager:
    return OrecEagerPolicy::Name;
  case FuzzBackend::Tlrw:
    return TlrwPolicy::Name;
  case FuzzBackend::TwoPlUndo:
    return TwoPlPolicy::Name;
  case FuzzBackend::Reference:
    return "ref";
  }
  return "?";
}

bool gstm::fuzzBackendFromName(const std::string &Name, FuzzBackend &Out) {
  for (FuzzBackend B : AllFuzzBackends)
    if (Name == fuzzBackendName(B)) {
      Out = B;
      return true;
    }
  return false;
}

std::vector<uint64_t> FuzzPlan::expectedFinal() const {
  std::vector<uint64_t> Final = Initial;
  for (const auto &Txns : PerThread)
    for (const FuzzTxn &T : Txns)
      for (const FuzzOp &Op : T.Ops)
        if (Op.IsWrite)
          Final[Op.Var] += Op.Delta;
  return Final;
}

FuzzPlan gstm::makeFuzzPlan(uint64_t Seed, const FuzzConfig &Cfg) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  FuzzPlan Plan;
  Plan.Initial.resize(Cfg.Vars);
  for (uint64_t &V : Plan.Initial)
    V = Rng.next();

  std::vector<unsigned> VarOrder(Cfg.Vars);
  std::iota(VarOrder.begin(), VarOrder.end(), 0u);

  Plan.PerThread.resize(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T) {
    Plan.PerThread[T].resize(Cfg.TxnsPerThread);
    for (unsigned K = 0; K < Cfg.TxnsPerThread; ++K) {
      FuzzTxn &Txn = Plan.PerThread[T][K];
      unsigned MaxOps = std::min<unsigned>(Cfg.MaxOpsPerTxn, Cfg.Vars);
      unsigned NumOps = 1 + static_cast<unsigned>(
                                Rng.nextBounded(MaxOps ? MaxOps : 1));
      NumOps = std::min(NumOps, Cfg.Vars);
      // Partial Fisher-Yates: the first NumOps entries become a uniform
      // sample of distinct variables.
      for (unsigned I = 0; I < NumOps; ++I) {
        unsigned J = I + static_cast<unsigned>(
                             Rng.nextBounded(Cfg.Vars - I));
        std::swap(VarOrder[I], VarOrder[J]);
      }
      Txn.Ops.resize(NumOps);
      for (unsigned I = 0; I < NumOps; ++I) {
        FuzzOp &Op = Txn.Ops[I];
        Op.Var = VarOrder[I];
        Op.IsWrite = (Rng.next() & 1) != 0;
        // Unique full-width deltas make every intermediate value of a
        // variable distinct (whp), which the checkers' value-based read
        // attribution needs. Zero would alias consecutive values.
        if (Op.IsWrite)
          do {
            Op.Delta = Rng.next();
          } while (Op.Delta == 0);
      }
    }
  }
  return Plan;
}

namespace {

/// Applies the per-run verdicts shared by every backend.
void judge(FuzzRunResult &R, const History &H, const FuzzConfig &Cfg,
           size_t ExpectedCommits, const std::string &LockResidue) {
  R.Attempts = H.Attempts.size();
  R.Committed = H.committedCount();
  R.Check = checkAll(H, Cfg.Checker);

  std::ostringstream Err;
  if (R.Check.violation())
    Err << "checker: " << R.Check.Reason;
  else if (!LockResidue.empty())
    Err << "lock-residue: " << LockResidue;
  else if (R.Final != R.Expected) {
    size_t Bad = 0;
    while (Bad < R.Final.size() && R.Final[Bad] == R.Expected[Bad])
      ++Bad;
    Err << "final-state: var " << Bad << " is " << R.Final[Bad]
        << ", expected " << R.Expected[Bad]
        << " (lost or phantom update)";
  } else if (R.Committed != ExpectedCommits)
    Err << "accounting: " << R.Committed << " commits recorded, expected "
        << ExpectedCommits;
  R.Error = Err.str();
}

FuzzRunResult runTl2(const FuzzPlan &Plan, uint64_t Seed,
                     const FuzzConfig &Cfg) {
  FuzzRunResult R;
  R.Expected = Plan.expectedFinal();

  Tl2Config C;
  C.LockTableBits = 10; // small table: deliberate stripe aliasing pressure
  C.PreemptShift = Cfg.PreemptShift;
  C.Fault = Cfg.Fault;
  Tl2Stm Stm(C);

  std::deque<TVar<uint64_t>> Vars;
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Vars.emplace_back(Plan.Initial[I]);

  HistoryRecorder Rec(Cfg.Threads);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Rec.noteInitial(&Vars[I].word(), Plan.Initial[I]);
  SchedulePerturber Perturb(Cfg.Threads, Seed, &Rec, Cfg.PerturbShift);
  Stm.setAccessObserver(&Perturb);
  Stm.setObserver(&Rec);

  // Workers start together. Thread creation is slow next to a plan's
  // few transactions (much slower under TSan), so without the barrier the
  // first worker can finish before the last one exists and the seed only
  // ever explores the serial schedule. Every runner below does the same.
  Barrier Start(Cfg.Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, T);
      Start.arriveAndWait();
      const std::vector<FuzzTxn> &Txns = Plan.PerThread[T];
      for (size_t K = 0; K < Txns.size(); ++K)
        Txn.run(static_cast<TxId>(K), [&](Tl2Txn &Tx) {
          for (const FuzzOp &Op : Txns[K].Ops) {
            uint64_t V = Tx.load(Vars[Op.Var]);
            if (Op.IsWrite)
              Tx.store(Vars[Op.Var], V + Op.Delta);
          }
        });
    });
  for (std::thread &W : Workers)
    W.join();

  Stm.setAccessObserver(nullptr);
  Stm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();

  R.Final.resize(Cfg.Vars);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    R.Final[I] = Vars[I].loadDirect();

  std::string Residue;
  lockTableQuiescent(Stm.lockTable(), &Residue);
  judge(R, Rec.take(), Cfg,
        size_t{Cfg.Threads} * Cfg.TxnsPerThread, Residue);
  return R;
}

/// One runner covers all three policy-templated engines: the chassis
/// mirrors Tl2Stm's observer/stats surface, so only the table type (and
/// hence the residue probe) varies per policy.
template <typename Policy>
FuzzRunResult runEngine(const FuzzPlan &Plan, uint64_t Seed,
                        const FuzzConfig &Cfg) {
  FuzzRunResult R;
  R.Expected = Plan.expectedFinal();

  EngineConfig C;
  C.TableBits = 10; // small table: deliberate entry aliasing pressure
  C.PreemptShift = Cfg.PreemptShift;
  C.Fault = Cfg.EngineFault;
  EngineStm<Policy> Stm(C);

  std::deque<TVar<uint64_t>> Vars;
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Vars.emplace_back(Plan.Initial[I]);

  HistoryRecorder Rec(Cfg.Threads);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Rec.noteInitial(&Vars[I].word(), Plan.Initial[I]);
  SchedulePerturber Perturb(Cfg.Threads, Seed, &Rec, Cfg.PerturbShift);
  Stm.setAccessObserver(&Perturb);
  Stm.setObserver(&Rec);

  Barrier Start(Cfg.Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      EngineTxn<Policy> Txn(Stm, T);
      Start.arriveAndWait();
      const std::vector<FuzzTxn> &Txns = Plan.PerThread[T];
      for (size_t K = 0; K < Txns.size(); ++K)
        Txn.run(static_cast<TxId>(K), [&](EngineTxn<Policy> &Tx) {
          for (const FuzzOp &Op : Txns[K].Ops) {
            uint64_t V = Tx.load(Vars[Op.Var]);
            if (Op.IsWrite)
              Tx.store(Vars[Op.Var], V + Op.Delta);
          }
        });
    });
  for (std::thread &W : Workers)
    W.join();

  Stm.setAccessObserver(nullptr);
  Stm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();

  R.Final.resize(Cfg.Vars);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    R.Final[I] = Vars[I].loadDirect();

  std::string Residue;
  if constexpr (std::is_same_v<typename Policy::Table, ByteLockTable>)
    byteLockTableQuiescent(Stm.table(), &Residue);
  else
    lockTableQuiescent(Stm.table(), &Residue);
  judge(R, Rec.take(), Cfg,
        size_t{Cfg.Threads} * Cfg.TxnsPerThread, Residue);
  return R;
}

FuzzRunResult runLibTm(const FuzzPlan &Plan, uint64_t Seed,
                       const FuzzConfig &Cfg) {
  FuzzRunResult R;
  R.Expected = Plan.expectedFinal();

  LibTmConfig C;
  C.PreemptShift = Cfg.PreemptShift;
  LibTm Tm(C);

  std::deque<TObj<uint64_t>> Objs;
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Objs.emplace_back(Plan.Initial[I]);

  HistoryRecorder Rec(Cfg.Threads);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Rec.noteInitial(&Objs[I], Plan.Initial[I]);
  SchedulePerturber Perturb(Cfg.Threads, Seed, &Rec, Cfg.PerturbShift);
  Tm.setAccessObserver(&Perturb);
  Tm.setObserver(&Rec);

  Barrier Start(Cfg.Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      LibTxn Txn(Tm, T);
      Start.arriveAndWait();
      const std::vector<FuzzTxn> &Txns = Plan.PerThread[T];
      for (size_t K = 0; K < Txns.size(); ++K)
        Txn.run(static_cast<TxId>(K), [&](LibTxn &Tx) {
          for (const FuzzOp &Op : Txns[K].Ops) {
            uint64_t V = Tx.read(Objs[Op.Var]);
            if (Op.IsWrite)
              Tx.write(Objs[Op.Var], V + Op.Delta);
          }
        });
    });
  for (std::thread &W : Workers)
    W.join();

  Tm.setAccessObserver(nullptr);
  Tm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();

  R.Final.resize(Cfg.Vars);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    R.Final[I] = Objs[I].loadDirect();

  std::string Residue;
  for (unsigned I = 0; I < Cfg.Vars; ++I) {
    StripeState S = LockTable::decode(
        Objs[I].meta().load(std::memory_order_acquire));
    if (S.Locked) {
      Residue = "object " + std::to_string(I) +
                " still locked at quiescence";
      break;
    }
  }
  judge(R, Rec.take(), Cfg,
        size_t{Cfg.Threads} * Cfg.TxnsPerThread, Residue);
  return R;
}

/// Serial ground truth: interprets the plan thread-by-thread on a plain
/// array while synthesizing the corresponding single-threaded history
/// through the recorder, so the checkers see a well-formed input whose
/// verdict must be Ok. Doubles as the known-good state for the
/// differential comparison and as a self-test of the checker pipeline.
FuzzRunResult runReference(const FuzzPlan &Plan, const FuzzConfig &Cfg) {
  FuzzRunResult R;
  R.Expected = Plan.expectedFinal();

  std::vector<uint64_t> Values = Plan.Initial;
  std::vector<uint64_t> VarVersion(Cfg.Vars, 0);

  HistoryRecorder Rec(1);
  for (unsigned I = 0; I < Cfg.Vars; ++I)
    Rec.noteInitial(&Values[I], Plan.Initial[I]);

  uint64_t Clock = 0;
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    for (size_t K = 0; K < Plan.PerThread[T].size(); ++K) {
      const FuzzTxn &Txn = Plan.PerThread[T][K];
      Rec.onTxBegin(0, static_cast<TxId>(K), Clock);
      std::vector<std::pair<unsigned, uint64_t>> Writes;
      for (const FuzzOp &Op : Txn.Ops) {
        Rec.onTxLoad(0, &Values[Op.Var], Values[Op.Var],
                     VarVersion[Op.Var], /*Buffered=*/false);
        if (Op.IsWrite) {
          uint64_t New = Values[Op.Var] + Op.Delta;
          Rec.onTxStore(0, &Values[Op.Var], New);
          Writes.emplace_back(Op.Var, New);
        }
      }
      bool ReadOnly = Writes.empty();
      uint64_t Wv = 0;
      if (!ReadOnly) {
        Wv = ++Clock;
        for (const auto &[Var, New] : Writes) {
          Values[Var] = New;
          VarVersion[Var] = Wv;
        }
      }
      Rec.onCommit(CommitEvent{0, static_cast<TxId>(K), Wv, 0, ReadOnly});
    }

  R.Final = Values;
  judge(R, Rec.take(), Cfg,
        size_t{Cfg.Threads} * Cfg.TxnsPerThread, /*LockResidue=*/"");
  return R;
}

} // namespace

FuzzRunResult gstm::runFuzzIteration(uint64_t Seed, FuzzBackend Backend,
                                     const FuzzConfig &Cfg) {
  FuzzPlan Plan = makeFuzzPlan(Seed, Cfg);
  switch (Backend) {
  case FuzzBackend::Tl2Lazy:
    return runTl2(Plan, Seed, Cfg);
  case FuzzBackend::LibTm:
    return runLibTm(Plan, Seed, Cfg);
  case FuzzBackend::OrecEager:
    return runEngine<OrecEagerPolicy>(Plan, Seed, Cfg);
  case FuzzBackend::Tlrw:
    return runEngine<TlrwPolicy>(Plan, Seed, Cfg);
  case FuzzBackend::TwoPlUndo:
    return runEngine<TwoPlPolicy>(Plan, Seed, Cfg);
  case FuzzBackend::Reference:
    return runReference(Plan, Cfg);
  }
  return FuzzRunResult{};
}

DifferentialResult gstm::runDifferential(uint64_t Seed,
                                         const FuzzConfig &Cfg) {
  DifferentialResult D;
  std::ostringstream Err;
  for (FuzzBackend B : AllFuzzBackends) {
    FuzzRunResult R = runFuzzIteration(Seed, B, Cfg);
    if (!R.passed() && Err.str().empty())
      Err << fuzzBackendName(B) << ": " << R.Error;
    D.PerBackend.emplace_back(B, std::move(R));
  }
  // Cross-backend: every backend must land in the same final state (each
  // already equals the analytic expectation when it passed, but compare
  // directly so a bug in the expectation itself cannot mask divergence).
  if (Err.str().empty())
    for (size_t I = 1; I < D.PerBackend.size(); ++I)
      if (D.PerBackend[I].second.Final != D.PerBackend[0].second.Final) {
        Err << "divergence: " << fuzzBackendName(D.PerBackend[I].first)
            << " disagrees with "
            << fuzzBackendName(D.PerBackend[0].first)
            << " on the final state";
        break;
      }
  D.Error = Err.str();
  return D;
}
