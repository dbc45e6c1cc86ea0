//===- bench/micro_stm_ops.cpp ------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Micro-benchmarks of the STM primitives (google-benchmark). Not a paper
// figure; supports the overhead analysis: the paper's guided-execution
// slowdowns bottom out in the per-transaction costs measured here (txn
// begin/commit, transactional load/store, model lookup in the gate).
//
//===----------------------------------------------------------------------===//

#include "core/GuideController.h"
#include "core/GuidedPolicy.h"
#include "engine/Engines.h"
#include "libtm/LibTm.h"
#include "stm/TVar.h"
#include "support/SplitMix64.h"
#include "tmds/TmBTree.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace gstm;

static void BM_Tl2ReadOnlyTxn(benchmark::State &State) {
  Tl2Stm Stm;
  TVar<uint64_t> X{42};
  Tl2Txn Txn(Stm, 0);
  for (auto _ : State) {
    uint64_t V = 0;
    Txn.run(0, [&](Tl2Txn &Tx) { V = Tx.load(X); });
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_Tl2ReadOnlyTxn);

static void BM_Tl2WriteTxn(benchmark::State &State) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  for (auto _ : State)
    Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, Tx.load(X) + 1); });
}
BENCHMARK(BM_Tl2WriteTxn);

static void BM_Tl2TxnBySize(benchmark::State &State) {
  Tl2Stm Stm;
  const size_t N = static_cast<size_t>(State.range(0));
  std::vector<std::unique_ptr<TVar<uint64_t>>> Vars;
  for (size_t I = 0; I < N; ++I)
    Vars.push_back(std::make_unique<TVar<uint64_t>>(I));
  Tl2Txn Txn(Stm, 0);
  for (auto _ : State)
    Txn.run(0, [&](Tl2Txn &Tx) {
      for (auto &V : Vars)
        Tx.store(*V, Tx.load(*V) + 1);
    });
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_Tl2TxnBySize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// Constructs and destroys a default Tl2Stm: the set-up every experiment
/// run pays for a fresh runtime, dominated by mapping and zeroing the
/// lock table.
static void BM_Tl2StmConstruct(benchmark::State &State) {
  for (auto _ : State) {
    Tl2Stm Stm;
    benchmark::DoNotOptimize(&Stm);
  }
}
BENCHMARK(BM_Tl2StmConstruct);

/// A read-only transaction walking 32 linked {Key, Value, Next} nodes.
/// The nodes follow one fixed shuffled cycle through a 2^18-node pool
/// (~6 MB, larger than a core's L2) and each walk starts where the last
/// one stopped, so it reads cold data the way a list or B-tree walk over
/// a large heap does. The default table's stripes (512 KB) stay in L2,
/// so only the pool misses.
static void BM_Tl2ListWalkTxn(benchmark::State &State) {
  struct Node {
    TVar<uint64_t> Key, Value, Next;
  };
  constexpr uint64_t PoolSize = uint64_t{1} << 18;
  constexpr unsigned WalkLength = 32;
  std::vector<Node> Pool(PoolSize);
  std::vector<uint64_t> Order(PoolSize);
  for (uint64_t I = 0; I < PoolSize; ++I)
    Order[I] = I;
  SplitMix64 Rng(1);
  for (uint64_t I = PoolSize - 1; I > 0; --I)
    std::swap(Order[I], Order[Rng.nextBounded(I + 1)]);
  for (uint64_t I = 0; I < PoolSize; ++I) {
    Node &N = Pool[Order[I]];
    N.Key.storeDirect(Order[I]);
    N.Value.storeDirect(Order[I] * 3);
    N.Next.storeDirect(Order[(I + 1) % PoolSize]);
  }
  Tl2Stm Stm;
  Tl2Txn Txn(Stm, 0);
  uint64_t Head = Order[0];
  for (auto _ : State) {
    uint64_t Sum = 0;
    Txn.run(0, [&](Tl2Txn &Tx) {
      Sum = 0;
      uint64_t At = Head;
      for (unsigned I = 0; I < WalkLength; ++I) {
        const Node &N = Pool[At];
        Sum += Tx.load(N.Key) + Tx.load(N.Value);
        At = Tx.load(N.Next);
      }
      Head = At;
    });
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * WalkLength);
}
BENCHMARK(BM_Tl2ListWalkTxn);

/// The tree ycsb-a-btree preloads: keys 1..2^20 inserted in order with
/// insertDirect, one 384-byte node per up to 15 keys, ~57 MB of pool.
/// Built once per process, on first use.
using BenchTree = TmBTree<Tl2Backend>;
constexpr uint64_t BenchTreeKeys = uint64_t{1} << 20;
static BenchTree &benchTree() {
  struct Built {
    BenchTree::Pool Pool{
        static_cast<uint32_t>(BenchTree::nodesFor(BenchTreeKeys))};
    BenchTree T{Pool};
    Built() {
      for (uint64_t K = 1; K <= BenchTreeKeys; ++K)
        T.insertDirect(K, K * 3);
    }
  };
  static Built B;
  return B.T;
}

/// A TL2 find over the 2^20-key tree: each find descends the tree's
/// levels to a key drawn uniformly from a fixed-seed sequence outside
/// the transaction.
static void BM_TmBTreeFindTxn(benchmark::State &State) {
  BenchTree &Tree = benchTree();
  Tl2Stm Stm;
  Tl2Txn Txn(Stm, 0);
  SplitMix64 Rng(7);
  for (auto _ : State) {
    const uint64_t Key = Rng.nextBounded(BenchTreeKeys) + 1;
    std::optional<uint64_t> Found;
    Txn.run(0, [&](Tl2Txn &Tx) { Found = Tree.find(Tx, Key); });
    benchmark::DoNotOptimize(Found);
  }
}
BENCHMARK(BM_TmBTreeFindTxn);

/// One TL2 update per transaction over the same tree and key sequence:
/// the descent of a find, then one buffered value write and a commit.
static void BM_TmBTreeUpdateTxn(benchmark::State &State) {
  BenchTree &Tree = benchTree();
  Tl2Stm Stm;
  Tl2Txn Txn(Stm, 0);
  SplitMix64 Rng(7);
  for (auto _ : State) {
    const uint64_t Key = Rng.nextBounded(BenchTreeKeys) + 1;
    bool Updated = false;
    Txn.run(0, [&](Tl2Txn &Tx) { Updated = Tree.update(Tx, Key, Key); });
    benchmark::DoNotOptimize(Updated);
  }
}
BENCHMARK(BM_TmBTreeUpdateTxn);

static void BM_LibTmObjectTxn(benchmark::State &State) {
  LibTm Tm;
  struct Vec3 {
    double X = 0, Y = 0, Z = 0;
  };
  TObj<Vec3> Obj;
  LibTxn Txn(Tm, 0);
  for (auto _ : State)
    Txn.run(0, [&](LibTxn &Tx) {
      Vec3 V = Tx.read(Obj);
      V.X += 1;
      Tx.write(Obj, V);
    });
}
BENCHMARK(BM_LibTmObjectTxn);

namespace {

/// Shared runtime for the multi-threaded counter-contention benchmarks.
/// Each worker gets its own TVar, padded far apart, so transactions never
/// conflict: with disjoint data the only cross-thread writes the seed
/// runtime performed were the two global commit/abort atomics, which is
/// exactly the contention the sharded stats remove. Thread t maps to
/// stats shard t. The orec-eager rows below share it.
template <typename StmT> struct DisjointBenchState {
  static constexpr size_t MaxThreads = 64;
  StmT Stm;
  struct alignas(256) PaddedVar {
    TVar<uint64_t> Var;
  };
  std::vector<PaddedVar> Vars;
  DisjointBenchState() : Vars(MaxThreads) {}
};

} // namespace

static void BM_Tl2DisjointWriteTxn(benchmark::State &State) {
  static DisjointBenchState<Tl2Stm> G; // magic static: thread-safe init
  auto Thread = static_cast<ThreadId>(State.thread_index());
  Tl2Txn Txn(G.Stm, Thread);
  TVar<uint64_t> &Mine = G.Vars[State.thread_index()].Var;
  for (auto _ : State)
    Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(Mine, Tx.load(Mine) + 1); });
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Tl2DisjointWriteTxn)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

static void BM_Tl2DisjointReadOnlyTxn(benchmark::State &State) {
  static DisjointBenchState<Tl2Stm> G;
  auto Thread = static_cast<ThreadId>(State.thread_index());
  Tl2Txn Txn(G.Stm, Thread);
  TVar<uint64_t> &Mine = G.Vars[State.thread_index()].Var;
  for (auto _ : State) {
    uint64_t V = 0;
    Txn.run(0, [&](Tl2Txn &Tx) { V = Tx.load(Mine); });
    benchmark::DoNotOptimize(V);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Tl2DisjointReadOnlyTxn)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

namespace {

/// Minimal attached sink for the access-observer overhead pair below:
/// counts events and nothing else, so the pair isolates the hook cost.
struct CountingAccessObserver final : TxAccessObserver {
  uint64_t Begins = 0, Loads = 0, Stores = 0, Locks = 0;
  void onTxBegin(ThreadId, TxId, uint64_t) override { ++Begins; }
  void onTxLoad(ThreadId, const void *, uint64_t, uint64_t,
                bool) override {
    ++Loads;
  }
  void onTxStore(ThreadId, const void *, uint64_t) override { ++Stores; }
  void onLockAcquire(ThreadId, uint64_t) override { ++Locks; }
};

/// Fixture for the observer pair: a 16-location read-modify-write
/// transaction, sized to exercise the inline-capacity read/write logs and
/// the open-addressed write index without spilling to the heap.
struct ObserverPairBench {
  static constexpr size_t Vars = 16;
  Tl2Stm Stm;
  std::vector<std::unique_ptr<TVar<uint64_t>>> Locations;
  ObserverPairBench() {
    for (size_t I = 0; I < Vars; ++I)
      Locations.push_back(std::make_unique<TVar<uint64_t>>(I));
  }
  void runOnce(Tl2Txn &Txn) {
    Txn.run(0, [&](Tl2Txn &Tx) {
      for (auto &V : Locations)
        Tx.store(*V, Tx.load(*V) + 1);
    });
  }
};

} // namespace

// Attached-vs-detached cost of the per-access observer hook over the
// inline-capacity transaction logs: detached must stay at one null test
// per access, attached adds only the virtual dispatch + counter. A gap
// beyond that means the container rework re-introduced per-access
// overhead on the observer path.
static void BM_Tl2RwAccessObserverDetached(benchmark::State &State) {
  ObserverPairBench G;
  Tl2Txn Txn(G.Stm, 0);
  for (auto _ : State)
    G.runOnce(Txn);
  State.SetItemsProcessed(State.iterations() * ObserverPairBench::Vars);
}
BENCHMARK(BM_Tl2RwAccessObserverDetached);

static void BM_Tl2RwAccessObserverAttached(benchmark::State &State) {
  ObserverPairBench G;
  CountingAccessObserver Obs;
  G.Stm.setAccessObserver(&Obs);
  Tl2Txn Txn(G.Stm, 0);
  for (auto _ : State)
    G.runOnce(Txn);
  G.Stm.setAccessObserver(nullptr);
  benchmark::DoNotOptimize(Obs.Loads);
  State.SetItemsProcessed(State.iterations() * ObserverPairBench::Vars);
}
BENCHMARK(BM_Tl2RwAccessObserverAttached);

// orec-eager, the chassis's in-place policy, in the shapes of the TL2
// rows above — read-only txn, single-location RMW and disjoint contended
// RMW — so the snapshot keeps the lazy-vs-eager pair side by side.
static void BM_OrecEagerReadOnlyTxn(benchmark::State &State) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{42};
  OrecEagerTxn Txn(Stm, 0);
  for (auto _ : State) {
    uint64_t V = 0;
    Txn.run(1, [&](OrecEagerTxn &Tx) { V = Tx.load(X); });
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_OrecEagerReadOnlyTxn);

static void BM_OrecEagerWriteTxn(benchmark::State &State) {
  OrecEagerStm Stm;
  TVar<uint64_t> X{0};
  OrecEagerTxn Txn(Stm, 0);
  for (auto _ : State)
    Txn.run(1, [&](OrecEagerTxn &Tx) { Tx.store(X, Tx.load(X) + 1); });
}
BENCHMARK(BM_OrecEagerWriteTxn);

static void BM_OrecEagerDisjointWriteTxn(benchmark::State &State) {
  static DisjointBenchState<OrecEagerStm> G;
  auto Thread = static_cast<ThreadId>(State.thread_index());
  OrecEagerTxn Txn(G.Stm, Thread);
  TVar<uint64_t> &Mine = G.Vars[State.thread_index()].Var;
  for (auto _ : State)
    Txn.run(1, [&](OrecEagerTxn &Tx) {
      Tx.store(Mine, Tx.load(Mine) + 1);
    });
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_OrecEagerDisjointWriteTxn)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

static void BM_GatePolicyLookup(benchmark::State &State) {
  // Cost of one gate check against a compiled policy (the hot-path add-on
  // of guided execution).
  Tsa Model;
  std::vector<StateTuple> Run;
  for (int I = 0; I < 64; ++I) {
    StateTuple S;
    S.Commit = packPair(static_cast<TxId>(I % 4),
                        static_cast<ThreadId>(I % 8));
    if (I % 3 == 0)
      S.Aborts.push_back(packPair(1, static_cast<ThreadId>((I + 1) % 8)));
    S.canonicalize();
    Run.push_back(S);
  }
  Model.addRun(Run);
  GuidedPolicy Policy(std::move(Model), 4.0);

  StateId S = 0;
  for (auto _ : State) {
    bool Allowed = Policy.allows(S, packPair(1, 3));
    benchmark::DoNotOptimize(Allowed);
    S = (S + 1) % Policy.model().numStates();
  }
}
BENCHMARK(BM_GatePolicyLookup);

namespace {

/// Small trained policy + controller plumbed into a TL2 instance: one
/// guided commit end to end (gate check, commit, tuple formation and
/// resolution).
struct GuidedCommitBench {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  GuidedPolicy Policy;
  GuideController Controller;

  /// Trained on the commits the benchmark makes (transaction 0 on thread
  /// 0), so every start is admitted and every tuple resolves to a known
  /// state: the row times the admitted path, not the gate's forced-release
  /// sleeps.
  static Tsa makeModel() {
    StateTuple S;
    S.Commit = packPair(0, 0);
    Tsa Model;
    Model.addRun(std::vector<StateTuple>(64, S));
    return Model;
  }

  GuidedCommitBench()
      : Policy(makeModel(), 4.0), Controller(Policy, GuideConfig{}) {
    Stm.setObserver(&Controller);
    Stm.setGate(&Controller);
  }
};

} // namespace

static void BM_GuidedCommit(benchmark::State &State) {
  GuidedCommitBench G;
  Tl2Txn Txn(G.Stm, 0);
  for (auto _ : State)
    Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(G.X, Tx.load(G.X) + 1); });
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_GuidedCommit);

static void BM_StateTupleIntern(benchmark::State &State) {
  // Cost of resolving an observed tuple to a model state (per commit in
  // guided runs).
  Tsa Model;
  std::vector<StateTuple> Run;
  for (int I = 0; I < 256; ++I) {
    StateTuple S;
    S.Commit = packPair(static_cast<TxId>(I % 8),
                        static_cast<ThreadId>(I % 16));
    S.canonicalize();
    Run.push_back(S);
  }
  Model.addRun(Run);
  GuidedPolicy Policy(std::move(Model), 4.0);

  StateTuple Probe;
  Probe.Commit = packPair(3, 7);
  Probe.canonicalize();
  for (auto _ : State) {
    StateId Id = Policy.resolve(Probe);
    benchmark::DoNotOptimize(Id);
  }
}
BENCHMARK(BM_StateTupleIntern);

// Custom main instead of BENCHMARK_MAIN(): `--json-dir=DIR` additionally
// routes the full google-benchmark JSON report (one row per op kind and
// thread count) to DIR/micro_stm_ops.json, which is the ingestion format
// of tools/bench_runner. All other flags pass through to the library.
int main(int Argc, char **Argv) {
  std::string JsonDir;
  std::vector<char *> Passthrough;
  Passthrough.push_back(Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.rfind("--json-dir=", 0) == 0)
      JsonDir = Arg.substr(std::string_view("--json-dir=").size());
    else
      Passthrough.push_back(Argv[I]);
  }
  int PassArgc = static_cast<int>(Passthrough.size());
  benchmark::Initialize(&PassArgc, Passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(PassArgc,
                                             Passthrough.data()))
    return 1;
  if (!JsonDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(JsonDir, Ec);
    std::string Path = JsonDir + "/micro_stm_ops.json";
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "micro_stm_ops: cannot write %s\n",
                   Path.c_str());
      return 1;
    }
    benchmark::JSONReporter Json;
    Json.SetOutputStream(&Out);
    benchmark::RunSpecifiedBenchmarks(&Json);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
