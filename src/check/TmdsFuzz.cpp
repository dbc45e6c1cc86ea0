//===- check/TmdsFuzz.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/TmdsFuzz.h"

#include "check/Perturb.h"
#include "support/Barrier.h"
#include "support/SplitMix64.h"
#include "tmds/TmBTree.h"
#include "tmds/TmSkipList.h"

#include <map>
#include <sstream>
#include <thread>

using namespace gstm;

const char *gstm::tmdsStructureName(TmdsStructure S) {
  switch (S) {
  case TmdsStructure::SkipList:
    return "skiplist";
  case TmdsStructure::BTree:
    return "btree";
  }
  return "?";
}

bool gstm::tmdsStructureFromName(const std::string &Name,
                                 TmdsStructure &Out) {
  for (TmdsStructure S : {TmdsStructure::SkipList, TmdsStructure::BTree})
    if (Name == tmdsStructureName(S)) {
      Out = S;
      return true;
    }
  return false;
}

std::vector<std::pair<uint64_t, uint64_t>> TmdsPlan::expectedFinal() const {
  std::map<uint64_t, uint64_t> M(Prepopulate.begin(), Prepopulate.end());
  for (const auto &Txns : PerThread)
    for (const TmdsTxn &T : Txns)
      for (const TmdsOp &Op : T.Ops)
        switch (Op.K) {
        case TmdsOp::Kind::Insert:
          M.emplace(Op.Key, Op.Value); // no overwrite: insert() rejects dups
          break;
        case TmdsOp::Kind::Update:
          if (auto It = M.find(Op.Key); It != M.end())
            It->second = Op.Value;
          break;
        case TmdsOp::Kind::Remove:
          M.erase(Op.Key);
          break;
        case TmdsOp::Kind::Find:
        case TmdsOp::Kind::Scan:
        case TmdsOp::Kind::Size:
          break;
        }
  return {M.begin(), M.end()};
}

TmdsPlan gstm::makeTmdsPlan(uint64_t Seed, const TmdsFuzzConfig &Cfg) {
  // Different multiplier stream than makeFuzzPlan so the two fuzzers
  // explore uncorrelated workloads for the same seed range.
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  TmdsPlan Plan;

  for (uint64_t K = 1; K <= Cfg.Keys; ++K)
    if ((Rng.next() & 1) != 0)
      Plan.Prepopulate.emplace_back(K, Rng.next());

  // Mutation-key partition: thread T owns the keys congruent to T, which
  // is what makes the std::map oracle schedule-independent.
  std::vector<std::vector<uint64_t>> Owned(Cfg.Threads);
  for (uint64_t K = 1; K <= Cfg.Keys; ++K)
    Owned[K % Cfg.Threads].push_back(K);

  Plan.PerThread.resize(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T) {
    Plan.PerThread[T].resize(Cfg.TxnsPerThread);
    const bool HasOwned = !Owned[T].empty();
    for (unsigned X = 0; X < Cfg.TxnsPerThread; ++X) {
      TmdsTxn &Txn = Plan.PerThread[T][X];
      unsigned NumOps = 1 + static_cast<unsigned>(Rng.nextBounded(
                                Cfg.OpsPerTxn ? Cfg.OpsPerTxn : 1));
      Txn.Ops.resize(NumOps);
      for (TmdsOp &Op : Txn.Ops) {
        uint64_t Roll = Rng.nextBounded(8);
        auto OwnedKey = [&] {
          return Owned[T][Rng.nextBounded(Owned[T].size())];
        };
        auto AnyKey = [&] {
          // Deliberately probes just past the keyspace too.
          return 1 + Rng.nextBounded(Cfg.Keys + 2);
        };
        if (Roll <= 1 && HasOwned) {
          Op.K = TmdsOp::Kind::Insert;
          Op.Key = OwnedKey();
          Op.Value = Rng.next();
        } else if (Roll == 2 && HasOwned) {
          Op.K = TmdsOp::Kind::Update;
          Op.Key = OwnedKey();
          Op.Value = Rng.next();
        } else if (Roll == 3 && HasOwned) {
          Op.K = TmdsOp::Kind::Remove;
          Op.Key = OwnedKey();
        } else if (Roll == 6) {
          Op.K = TmdsOp::Kind::Scan;
          Op.Key = AnyKey();
          Op.Count = 1 + static_cast<uint32_t>(Rng.nextBounded(6));
        } else if (Roll == 7) {
          Op.K = TmdsOp::Kind::Size;
        } else {
          Op.K = TmdsOp::Kind::Find;
          Op.Key = AnyKey();
        }
      }
    }
  }
  return Plan;
}

namespace {

/// Node budget: prepopulation plus every possible insert, with generous
/// headroom for nodes leaked by aborted attempts (TmPool discipline) and
/// for B-tree splits. Exhaustion is a loud abort, not a silent wrap.
uint32_t poolCapacity(const TmdsFuzzConfig &Cfg, size_t Prepop) {
  size_t Inserts =
      size_t{Cfg.Threads} * Cfg.TxnsPerThread * Cfg.OpsPerTxn;
  return static_cast<uint32_t>(Prepop + Inserts * 16 + 128);
}

template <typename DS>
void applyOp(DS &Ds, typename DS::Txn &Tx, const TmdsOp &Op) {
  switch (Op.K) {
  case TmdsOp::Kind::Insert:
    Ds.insert(Tx, Op.Key, Op.Value);
    break;
  case TmdsOp::Kind::Update:
    Ds.update(Tx, Op.Key, Op.Value);
    break;
  case TmdsOp::Kind::Remove:
    Ds.remove(Tx, Op.Key);
    break;
  case TmdsOp::Kind::Find:
    Ds.find(Tx, Op.Key);
    break;
  case TmdsOp::Kind::Scan: {
    uint64_t Sum = 0;
    Ds.scan(Tx, Op.Key, Op.Count, Sum);
    break;
  }
  case TmdsOp::Kind::Size:
    Ds.size(Tx);
    break;
  }
}

std::string
describeDivergence(const std::vector<std::pair<uint64_t, uint64_t>> &Got,
                   const std::vector<std::pair<uint64_t, uint64_t>> &Want) {
  std::ostringstream Err;
  size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  Err << "contents: ";
  if (I < Got.size() && I < Want.size())
    Err << "entry " << I << " is (" << Got[I].first << ", "
        << Got[I].second << "), expected (" << Want[I].first << ", "
        << Want[I].second << ") (lost, phantom or misordered update)";
  else
    Err << Got.size() << " entries, expected " << Want.size();
  return Err.str();
}

/// Shared run skeleton: prepopulate unobserved, register every owned
/// cell's quiescent value, execute the plan (concurrently or serially for
/// the reference interleaving), then apply every verdict.
template <typename B, template <typename> class DSTmpl, typename ResidueFn>
TmdsRunResult runOn(typename B::Stm &Stm, const TmdsPlan &Plan,
                    uint64_t Seed, const TmdsFuzzConfig &Cfg, bool Serial,
                    ResidueFn &&Residue) {
  using DS = DSTmpl<B>;
  TmdsRunResult R;
  R.Expected = Plan.expectedFinal();

  typename DS::Pool Nodes(poolCapacity(Cfg, Plan.Prepopulate.size()));
  DS Ds(Nodes);

  // Prepopulation runs before the observers attach, so it is invisible to
  // the history (its effect lands in the registered initial values).
  {
    typename B::Txn Tx0(Stm, 0);
    Tx0.run(static_cast<TxId>(0), [&](typename B::Txn &Tx) {
      for (const auto &[K, V] : Plan.Prepopulate)
        Ds.insert(Tx, K, V);
    });
  }

  const unsigned RecThreads = Serial ? 1 : Cfg.Threads;
  HistoryRecorder Rec(RecThreads);
  Ds.forEachCellDirect([&](const void *Addr, uint64_t Raw) {
    Rec.noteInitial(Addr, Raw);
  });
  SchedulePerturber Perturb(RecThreads, Seed, &Rec, Cfg.PerturbShift);
  // The serial reference wants the reference interleaving, not a
  // perturbed one — record accesses directly.
  Stm.setAccessObserver(Serial ? static_cast<TxAccessObserver *>(&Rec)
                               : &Perturb);
  Stm.setObserver(&Rec);

  if (Serial) {
    typename B::Txn Txn(Stm, 0);
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      for (size_t K = 0; K < Plan.PerThread[T].size(); ++K)
        Txn.run(static_cast<TxId>(K), [&](typename B::Txn &Tx) {
          for (const TmdsOp &Op : Plan.PerThread[T][K].Ops)
            applyOp(Ds, Tx, Op);
        });
  } else {
    // Workers start together, as in the word runners (check/Fuzz.cpp).
    Barrier Start(Cfg.Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      Workers.emplace_back([&, T] {
        typename B::Txn Txn(Stm, T);
        Start.arriveAndWait();
        const std::vector<TmdsTxn> &Txns = Plan.PerThread[T];
        for (size_t K = 0; K < Txns.size(); ++K)
          Txn.run(static_cast<TxId>(K), [&](typename B::Txn &Tx) {
            for (const TmdsOp &Op : Txns[K].Ops)
              applyOp(Ds, Tx, Op);
          });
      });
    for (std::thread &W : Workers)
      W.join();
  }

  Stm.setAccessObserver(nullptr);
  Stm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();

  Ds.forEachDirect(
      [&](uint64_t K, uint64_t V) { R.Final.emplace_back(K, V); });
  const std::string ResidueMsg = Residue(Stm, Ds);
  const bool StructureOk = Ds.validateDirect();

  History H = Rec.take();
  R.Attempts = H.Attempts.size();
  R.Committed = H.committedCount();
  // Map values are payload data, not the unique tokens the rmw fuzzer
  // plants; with duplicates possible the checkers degrade ambiguous read
  // attribution to Inconclusive instead of a false Violation.
  CheckerConfig CC = Cfg.Checker;
  CC.ValuesAreUnique = false;
  R.Check = checkAll(H, CC);

  const size_t ExpectedCommits = size_t{Cfg.Threads} * Cfg.TxnsPerThread;
  std::ostringstream Err;
  if (R.Check.violation())
    Err << "checker: " << R.Check.Reason;
  else if (!ResidueMsg.empty())
    Err << "lock-residue: " << ResidueMsg;
  else if (!StructureOk)
    Err << "structure: validateDirect failed (ordering, occupancy or "
           "size-stripe invariant broken)";
  else if (R.Final != R.Expected)
    Err << describeDivergence(R.Final, R.Expected);
  else if (R.Committed != ExpectedCommits)
    Err << "accounting: " << R.Committed << " commits recorded, expected "
        << ExpectedCommits;
  R.Error = Err.str();
  return R;
}

template <template <typename> class DSTmpl>
TmdsRunResult runTl2Ds(const TmdsPlan &Plan, uint64_t Seed,
                       const TmdsFuzzConfig &Cfg, bool Serial) {
  Tl2Config C;
  C.LockTableBits = 10; // small table: deliberate stripe aliasing pressure
  C.PreemptShift = Cfg.PreemptShift;
  Tl2Stm Stm(C);
  return runOn<Tl2Backend, DSTmpl>(
      Stm, Plan, Seed, Cfg, Serial, [](Tl2Stm &S, auto &) {
        std::string Why;
        lockTableQuiescent(S.lockTable(), &Why);
        return Why;
      });
}

template <template <typename> class DSTmpl>
TmdsRunResult runLibTmDs(const TmdsPlan &Plan, uint64_t Seed,
                         const TmdsFuzzConfig &Cfg) {
  LibTmConfig C;
  C.PreemptShift = Cfg.PreemptShift;
  LibTm Tm(C);
  return runOn<LibTmBackend, DSTmpl>(
      Tm, Plan, Seed, Cfg, /*Serial=*/false,
      [](LibTm &S, auto &Ds) -> std::string {
        if (Ds.anyCellLockedDirect(S))
          return "an object cell is still locked at quiescence";
        return "";
      });
}

/// One runner for the three policy-templated engines; the engine table's
/// residue probe is the whole-table quiescence check matching the
/// policy's table type.
template <typename Policy, template <typename> class DSTmpl>
TmdsRunResult runEngineDs(const TmdsPlan &Plan, uint64_t Seed,
                          const TmdsFuzzConfig &Cfg) {
  EngineConfig C;
  C.TableBits = 10; // small table: deliberate entry aliasing pressure
  C.PreemptShift = Cfg.PreemptShift;
  EngineStm<Policy> Stm(C);
  return runOn<EngineBackend<Policy>, DSTmpl>(
      Stm, Plan, Seed, Cfg, /*Serial=*/false,
      [](EngineStm<Policy> &S, auto &) {
        std::string Why;
        if constexpr (std::is_same_v<typename Policy::Table,
                                     ByteLockTable>)
          byteLockTableQuiescent(S.table(), &Why);
        else
          lockTableQuiescent(S.table(), &Why);
        return Why;
      });
}

template <template <typename> class DSTmpl>
TmdsRunResult runForStructure(const TmdsPlan &Plan, uint64_t Seed,
                              FuzzBackend Backend,
                              const TmdsFuzzConfig &Cfg) {
  switch (Backend) {
  case FuzzBackend::Tl2Lazy:
    return runTl2Ds<DSTmpl>(Plan, Seed, Cfg, /*Serial=*/false);
  case FuzzBackend::LibTm:
    return runLibTmDs<DSTmpl>(Plan, Seed, Cfg);
  case FuzzBackend::OrecEager:
    return runEngineDs<OrecEagerPolicy, DSTmpl>(Plan, Seed, Cfg);
  case FuzzBackend::Tlrw:
    return runEngineDs<TlrwPolicy, DSTmpl>(Plan, Seed, Cfg);
  case FuzzBackend::TwoPlUndo:
    return runEngineDs<TwoPlPolicy, DSTmpl>(Plan, Seed, Cfg);
  case FuzzBackend::Reference:
    // Ground truth: the same plan on the TL2-backed structure, executed
    // by one worker thread-major — a genuinely serial interleaving whose
    // history the checkers must accept.
    return runTl2Ds<DSTmpl>(Plan, Seed, Cfg, /*Serial=*/true);
  }
  return TmdsRunResult{};
}

} // namespace

TmdsRunResult gstm::runTmdsFuzzIteration(uint64_t Seed,
                                         FuzzBackend Backend,
                                         const TmdsFuzzConfig &Cfg) {
  TmdsPlan Plan = makeTmdsPlan(Seed, Cfg);
  if (Cfg.Structure == TmdsStructure::SkipList)
    return runForStructure<TmSkipList>(Plan, Seed, Backend, Cfg);
  return runForStructure<TmBTree>(Plan, Seed, Backend, Cfg);
}

TmdsDifferentialResult
gstm::runTmdsDifferential(uint64_t Seed, const TmdsFuzzConfig &Cfg) {
  TmdsDifferentialResult D;
  std::ostringstream Err;
  for (FuzzBackend B : AllFuzzBackends) {
    TmdsRunResult R = runTmdsFuzzIteration(Seed, B, Cfg);
    if (!R.passed() && Err.str().empty())
      Err << fuzzBackendName(B) << ": " << R.Error;
    D.PerBackend.emplace_back(B, std::move(R));
  }
  // Cross-backend: identical final contents everywhere (each already
  // matched the oracle when it passed; compare directly anyway so an
  // oracle bug cannot mask divergence).
  if (Err.str().empty())
    for (size_t I = 1; I < D.PerBackend.size(); ++I)
      if (D.PerBackend[I].second.Final != D.PerBackend[0].second.Final) {
        Err << "divergence: " << fuzzBackendName(D.PerBackend[I].first)
            << " disagrees with " << fuzzBackendName(D.PerBackend[0].first)
            << " on the final contents";
        break;
      }
  D.Error = Err.str();
  return D;
}
