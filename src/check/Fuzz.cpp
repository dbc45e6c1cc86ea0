//===- check/Fuzz.cpp ------------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"

#include "check/TmdsFuzz.h"
#include "stm/Perturb.h"
#include "support/Barrier.h"
#include "support/SplitMix64.h"
#include "tmds/TmBTree.h"
#include "tmds/TmBackend.h"
#include "tmds/TmSkipList.h"

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
  case FuzzBackend::Sharded:
    return ShardBackend::Name;
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
        // variable distinct (whp), so a stale read cannot pass the
        // checker's per-read value check by coincidence.
        // Zero would alias consecutive values.
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

using Contents = std::vector<std::pair<uint64_t, uint64_t>>;

/// The rmw workload on backend \p B: one cell per plan variable.
template <typename B> class RmwWorkload {
public:
  RmwWorkload(const FuzzPlan &Plan, const FuzzConfig &, typename B::Stm &)
      : Plan(Plan) {
    for (uint64_t V : Plan.Initial)
      Cells.emplace_back(V);
  }

  template <typename Fn> void forEachCell(Fn &&Callback) const {
    for (const auto &C : Cells)
      Callback(B::cellAddr(C), B::cellRaw(C));
  }
  void apply(typename B::Txn &Tx, const FuzzTxn &Txn) {
    for (const FuzzOp &Op : Txn.Ops) {
      uint64_t V = B::load(Tx, Cells[Op.Var]);
      if (Op.IsWrite)
        B::store(Tx, Cells[Op.Var], V + Op.Delta);
    }
  }
  Contents contents() const {
    Contents Out;
    for (size_t V = 0; V < Cells.size(); ++V)
      Out.emplace_back(V, B::loadDirect(Cells[V]));
    return Out;
  }
  bool structureOk() const { return true; }
  bool anyCellLocked(typename B::Stm &S) const {
    return std::any_of(Cells.begin(), Cells.end(),
                       [&](const auto &C) { return B::cellLocked(S, C); });
  }

  /// Sharded backend: homes variable v on shard v % Shards regardless of
  /// the address hash, so which transactions cross shards is a property
  /// of the plan, not of where the cells landed in memory. Returns the
  /// cross-shard writer commits the plan then requires: one per
  /// transaction whose write variables span >= 2 shards. Every planned
  /// transaction commits exactly once with exactly its write variables'
  /// home shards in its write mask, so the runtime's counter must match —
  /// the plan predicts the telemetry, not just the final state.
  uint64_t placeRoundRobin(ShardPlacement &Placement, unsigned Shards) const {
    for (size_t V = 0; V < Cells.size(); ++V)
      Placement.addRange(&Cells[V], &Cells[V] + 1,
                         static_cast<unsigned>(V % Shards));
    uint64_t Cross = 0;
    for (const auto &Txns : Plan.PerThread)
      for (const FuzzTxn &Txn : Txns) {
        uint64_t Mask = 0;
        for (const FuzzOp &Op : Txn.Ops)
          if (Op.IsWrite)
            Mask |= uint64_t{1} << (Op.Var % Shards);
        Cross += (Mask & (Mask - 1)) != 0;
      }
    return Cross;
  }

private:
  const FuzzPlan &Plan;
  std::deque<typename B::template Cell<uint64_t>> Cells;
};

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

/// A map workload on backend \p B over container \p DSTmpl, prepopulated
/// before the observers attach, so the prepopulation is invisible to the
/// history (its effect lands in the registered initial values).
template <typename B, template <typename> class DSTmpl> class MapWorkload {
public:
  MapWorkload(const TmdsPlan &Plan, const TmdsFuzzConfig &Cfg,
              typename B::Stm &Stm)
      : Nodes(poolCapacity(Cfg, Plan.Prepopulate.size())), Ds(Nodes) {
    typename B::Txn Tx0(Stm, 0);
    Tx0.run(static_cast<TxId>(0), [&](typename B::Txn &Tx) {
      for (const auto &[K, V] : Plan.Prepopulate)
        Ds.insert(Tx, K, V);
    });
  }

  /// Every cell the structure owns; a multi-word object cell (a B-tree
  /// node's key block) is one location, its Meta with payload word 0.
  template <typename Fn> void forEachCell(Fn &&Callback) const {
    Ds.forEachCellDirect(Callback);
  }
  void apply(typename B::Txn &Tx, const TmdsTxn &Txn) {
    for (const TmdsOp &Op : Txn.Ops)
      applyOp(Ds, Tx, Op);
  }
  Contents contents() const {
    Contents Out;
    Ds.forEachDirect([&](uint64_t K, uint64_t V) { Out.emplace_back(K, V); });
    return Out;
  }
  bool structureOk() const { return Ds.validateDirect(); }
  bool anyCellLocked(typename B::Stm &S) const {
    return Ds.anyCellLockedDirect(S);
  }

private:
  typename DSTmpl<B>::Pool Nodes;
  DSTmpl<B> Ds;
};

template <typename B> using SkipListWorkload = MapWorkload<B, TmSkipList>;
template <typename B> using BTreeWorkload = MapWorkload<B, TmBTree>;

/// rmw state as contents: (variable index, value) pairs.
Contents indexed(const std::vector<uint64_t> &Values) {
  Contents Out;
  for (size_t V = 0; V < Values.size(); ++V)
    Out.emplace_back(V, Values[V]);
  return Out;
}

Contents expectedContents(const TmdsPlan &Plan) { return Plan.expectedFinal(); }
Contents expectedContents(const FuzzPlan &Plan) {
  return indexed(Plan.expectedFinal());
}

template <typename Plan> size_t plannedCommits(const Plan &P) {
  size_t N = 0;
  for (const auto &Txns : P.PerThread)
    N += Txns.size();
  return N;
}

/// Runtime configuration of backend \p B from the run knobs. Tables are
/// small (2^10 stripes, per shard on the sharded tier): the aliasing
/// pressure is deliberate. Stripes follow data lines, so the aliasing is
/// per line: a word shares its stripe only with the same word of a line
/// that hashes to the same one of the table's 128 lines, and the words of
/// one line never share a stripe. Objects (all of LibTm's cells) keep
/// their own orecs on every runtime but the sharded one.
template <typename B> auto runtimeConfig(const FuzzRunConfig &Cfg) {
  EngineConfig C;
  C.Fault = Cfg.Fault;
  C.TableBits = 10;
  if constexpr (std::is_same_v<B, ShardBackend>) {
    ShardConfig SC;
    static_cast<EngineConfig &>(SC) = C;
    SC.ShardCount = Cfg.ShardCount;
    return SC;
  } else {
    return C;
  }
}

/// Lock residue after the workers joined, probed over the whole stripe
/// table the runtime keeps and — an object on the flat runtime keeps its
/// lock inside itself — the orec of every cell the workload owns.
template <typename B, typename W>
std::string residueOf(typename B::Stm &Stm, const W &Work) {
  std::string Why;
  if (lockTableQuiescent(Stm.lockTable(), &Why) && Work.anyCellLocked(Stm))
    Why = "a cell's orec is still locked at quiescence";
  return Why;
}

/// What a run leaves to judge besides its history and final contents.
struct Evidence {
  std::string Residue;
  bool StructureOk = true;
  bool StatsConsistent = true;
  bool PredictsCrossShard = false;
};

std::string describeDivergence(const Contents &Got, const Contents &Want) {
  std::ostringstream Err;
  size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  Err << "final-state: ";
  if (I < Got.size() && I < Want.size())
    Err << "entry " << I << " is (" << Got[I].first << ", "
        << Got[I].second << "), expected (" << Want[I].first << ", "
        << Want[I].second << ") (lost, phantom or misordered update)";
  else
    Err << Got.size() << " entries, expected " << Want.size();
  return Err.str();
}

/// Applies every verdict in order; the first failure becomes R.Error.
void judge(FuzzRunResult &R, const History &H, const Evidence &E,
           size_t ExpectedCommits) {
  R.Attempts = H.Attempts.size();
  R.Committed = H.committedCount();
  R.Check = checkAll(H);

  std::ostringstream Err;
  if (R.Check.violation())
    Err << "checker: " << R.Check.Reason;
  else if (!E.Residue.empty())
    Err << "lock-residue: " << E.Residue;
  else if (!E.StructureOk)
    Err << "structure: validateDirect failed (ordering, occupancy or "
           "size-stripe invariant broken)";
  else if (R.Final != R.Expected)
    Err << describeDivergence(R.Final, R.Expected);
  else if (R.Committed != ExpectedCommits)
    Err << "accounting: " << R.Committed << " commits recorded, expected "
        << ExpectedCommits;
  else if (!E.StatsConsistent)
    Err << "accounting: stats breakdowns inconsistent with totals";
  else if (E.PredictsCrossShard &&
           R.CrossShardCommits != R.ExpectedCrossShardCommits)
    Err << "coverage: " << R.CrossShardCommits
        << " cross-shard commits recorded, plan requires "
        << R.ExpectedCrossShardCommits;
  R.Error = Err.str();
}

/// The one run skeleton of the matrix: build backend \p B's runtime and
/// workload \p W on it, register every cell's quiescent value, execute
/// the plan with perturbation and recording (or, for the map reference,
/// serially by one worker), then collect the evidence and judge it.
///
/// A workload W<B> is built from (plan, config, runtime) and provides
/// forEachCell (observer address and raw word of every cell),
/// apply(Txn, planned transaction), contents(), structureOk() and
/// anyCellLocked(runtime); placeRoundRobin is optional and only the rmw
/// cells have it.
template <typename B, template <typename> class W, typename Plan,
          typename Config>
FuzzRunResult runOn(const Plan &P, uint64_t Seed, const Config &Cfg,
                    bool Serial = false) {
  typename B::Stm Stm(runtimeConfig<B>(Cfg));
  W<B> Work(P, Cfg, Stm);
  FuzzRunResult R;
  R.Expected = expectedContents(P);
  Evidence E;

  ShardPlacement Placement;
  if constexpr (std::is_same_v<B, ShardBackend> &&
                requires { Work.placeRoundRobin(Placement, 1u); }) {
    R.ExpectedCrossShardCommits =
        Work.placeRoundRobin(Placement, Cfg.ShardCount);
    Placement.finalize();
    Stm.setPlacement(&Placement);
    E.PredictsCrossShard = true;
  }

  const unsigned Threads = static_cast<unsigned>(P.PerThread.size());
  const unsigned RecThreads = Serial ? 1 : Threads;
  HistoryRecorder Rec(RecThreads);
  Work.forEachCell(
      [&](const void *Addr, uint64_t Raw) { Rec.noteInitial(Addr, Raw); });
  SchedulePerturber Perturb(RecThreads, Seed, &Rec, Cfg.PerturbShift);
  // The serial reference wants the reference interleaving, not a
  // perturbed one — record accesses directly.
  Stm.setAccessObserver(Serial ? static_cast<TxAccessObserver *>(&Rec)
                               : &Perturb);
  Stm.setObserver(&Rec);

  auto RunThread = [&](typename B::Txn &Txn, unsigned T) {
    const auto &Txns = P.PerThread[T];
    for (size_t K = 0; K < Txns.size(); ++K)
      Txn.run(static_cast<TxId>(K),
              [&](typename B::Txn &Tx) { Work.apply(Tx, Txns[K]); });
  };
  if (Serial) {
    typename B::Txn Txn(Stm, 0);
    for (unsigned T = 0; T < Threads; ++T)
      RunThread(Txn, T);
  } else {
    // Workers start together. Thread creation is slow next to a plan's
    // few transactions (much slower under TSan), so without the barrier
    // the first worker can finish before the last one exists and the
    // seed only ever explores the serial schedule.
    Barrier Start(Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        typename B::Txn Txn(Stm, T);
        Start.arriveAndWait();
        RunThread(Txn, T);
      });
    for (std::thread &Worker : Workers)
      Worker.join();
  }

  Stm.setAccessObserver(nullptr);
  Stm.setObserver(nullptr);
  R.PerturbYields = Perturb.yieldCount();
  R.Final = Work.contents();
  E.Residue = residueOf<B>(Stm, Work);
  E.StructureOk = Work.structureOk();
  const StatsSnapshot Stats = Stm.stats().aggregate();
  E.StatsConsistent = Stats.consistent();
  R.CrossShardCommits = Stats.CrossShardCommits;

  judge(R, Rec.take(), E, plannedCommits(P));
  return R;
}

/// Serial ground truth for rmw: interprets the plan thread-by-thread on a
/// plain array while synthesizing the corresponding single-threaded
/// history through the recorder, so the checkers see a well-formed input
/// whose verdict must be Ok. Doubles as the known-good state for the
/// differential comparison and as a self-test of the checker pipeline.
FuzzRunResult interpretSerially(const FuzzPlan &Plan) {
  FuzzRunResult R;
  R.Expected = expectedContents(Plan);

  std::vector<uint64_t> Values = Plan.Initial;
  std::vector<uint64_t> VarVersion(Values.size(), 0);

  HistoryRecorder Rec(1);
  for (size_t I = 0; I < Values.size(); ++I)
    Rec.noteInitial(&Values[I], Plan.Initial[I]);

  uint64_t Clock = 0;
  for (const std::vector<FuzzTxn> &Txns : Plan.PerThread)
    for (size_t K = 0; K < Txns.size(); ++K) {
      Rec.onTxBegin(0, static_cast<TxId>(K), Clock);
      std::vector<std::pair<unsigned, uint64_t>> Writes;
      for (const FuzzOp &Op : Txns[K].Ops) {
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

  R.Final = indexed(Values);
  judge(R, Rec.take(), Evidence{}, plannedCommits(Plan));
  return R;
}

template <template <typename> class W, typename Plan, typename Config>
FuzzRunResult runPlan(const Plan &P, uint64_t Seed, FuzzBackend Backend,
                      const Config &Cfg) {
  switch (Backend) {
  case FuzzBackend::Tl2Lazy:
    return runOn<Tl2Backend, W>(P, Seed, Cfg);
  case FuzzBackend::LibTm:
    return runOn<LibTmBackend, W>(P, Seed, Cfg);
  case FuzzBackend::OrecEager:
    return runOn<OrecEagerBackend, W>(P, Seed, Cfg);
  case FuzzBackend::Sharded:
    return runOn<ShardBackend, W>(P, Seed, Cfg);
  case FuzzBackend::Reference:
    // A map plan's ground truth is the same plan on the TL2-backed
    // structure, executed by one worker thread-major — a genuinely
    // serial interleaving whose history the checkers must accept.
    if constexpr (std::is_same_v<Plan, FuzzPlan>)
      return interpretSerially(P);
    else
      return runOn<Tl2Backend, W>(P, Seed, Cfg, /*Serial=*/true);
  }
  return FuzzRunResult{};
}

} // namespace

template <typename WorkloadConfig>
FuzzRunResult gstm::runFuzzIteration(uint64_t Seed, FuzzBackend Backend,
                                     const WorkloadConfig &Cfg) {
  if constexpr (std::is_same_v<WorkloadConfig, FuzzConfig>)
    return runPlan<RmwWorkload>(makeFuzzPlan(Seed, Cfg), Seed, Backend, Cfg);
  else if (Cfg.Structure == TmdsStructure::SkipList)
    return runPlan<SkipListWorkload>(makeTmdsPlan(Seed, Cfg), Seed, Backend,
                                     Cfg);
  else
    return runPlan<BTreeWorkload>(makeTmdsPlan(Seed, Cfg), Seed, Backend,
                                  Cfg);
}

template <typename WorkloadConfig>
unsigned gstm::checkerViolations(FuzzBackend Backend,
                                 const WorkloadConfig &Cfg, uint64_t MaxSeed,
                                 unsigned Enough) {
  unsigned Violations = 0;
  for (uint64_t Seed = 1; Seed <= MaxSeed && Violations < Enough; ++Seed)
    Violations += runFuzzIteration(Seed, Backend, Cfg).Check.violation();
  return Violations;
}

template <typename WorkloadConfig>
DifferentialResult
gstm::runDifferential(uint64_t Seed, const WorkloadConfig &Cfg,
                      std::span<const FuzzBackend> Backends) {
  DifferentialResult D;
  std::ostringstream Err;
  for (FuzzBackend B : Backends) {
    FuzzRunResult R = runFuzzIteration(Seed, B, Cfg);
    if (!R.passed() && Err.str().empty())
      Err << fuzzBackendName(B) << ": " << R.Error;
    D.PerBackend.emplace_back(B, std::move(R));
  }
  // Cross-backend: every backend must land in the same final state (each
  // already equals the expectation when it passed, but compare directly
  // so a bug in the expectation itself cannot mask divergence).
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

template FuzzRunResult gstm::runFuzzIteration(uint64_t, FuzzBackend,
                                              const FuzzConfig &);
template FuzzRunResult gstm::runFuzzIteration(uint64_t, FuzzBackend,
                                              const TmdsFuzzConfig &);
template unsigned gstm::checkerViolations(FuzzBackend, const FuzzConfig &,
                                          uint64_t, unsigned);
template unsigned gstm::checkerViolations(FuzzBackend,
                                          const TmdsFuzzConfig &, uint64_t,
                                          unsigned);
template DifferentialResult
gstm::runDifferential(uint64_t, const FuzzConfig &,
                      std::span<const FuzzBackend>);
template DifferentialResult
gstm::runDifferential(uint64_t, const TmdsFuzzConfig &,
                      std::span<const FuzzBackend>);
