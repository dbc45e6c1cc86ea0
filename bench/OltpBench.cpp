//===- bench/OltpBench.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "bench/OltpBench.h"

#include "support/SplitMix64.h"
#include "tmds/TmBTree.h"
#include "tmds/TmSkipList.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

using namespace gstm;

bool gstm::oltpMixFromName(const std::string &Name, OltpMix &Out) {
  if (Name == "a") {
    Out = OltpMix{50, 50, 0, 0};
    return true;
  }
  if (Name == "b") {
    Out = OltpMix{95, 5, 0, 0};
    return true;
  }
  if (Name == "c") {
    Out = OltpMix{100, 0, 0, 0};
    return true;
  }
  if (Name == "e") {
    Out = OltpMix{0, 0, 5, 95};
    return true;
  }
  return false;
}

namespace {

using Clock = std::chrono::steady_clock;

/// YCSB Zipfian rank generator over [0, N) with the standard rejection-
/// free closed form (Gray et al.); theta 0 degenerates to uniform.
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
    const double U =
        static_cast<double>(Rng.next() >> 11) * 0x1.0p-53; // [0, 1)
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

/// Scrambled-Zipfian key in [1, Records]: popular ranks hash to keys
/// spread across the whole keyspace, so hot keys do not cluster in one
/// region of the structure (YCSB's scrambled_zipfian).
uint64_t scrambleToKey(uint64_t Rank, uint64_t Records) {
  return 1 + tmdsMix64(Rank) % Records;
}

/// Deterministic record payload.
uint64_t valueFor(uint64_t Key, uint64_t Salt) {
  return tmdsMix64(Key ^ (Salt * 0x9e3779b97f4a7c15ULL));
}

enum class OpKind : uint8_t { Read, Update, Insert, Scan };

/// Node budget: the structure's own bound for the preload plus every
/// possible insert with headroom for nodes leaked by aborted speculative
/// inserts and for B-tree splits. 0 when the budget does not fit the
/// pool's 32-bit node indexes (TmPool keeps index 0 as its null node).
template <template <typename> class DSTmpl>
uint32_t poolCapacity(const OltpConfig &Cfg) {
  // The bound does not depend on the backend.
  using DS = DSTmpl<Tl2Backend>;
  constexpr uint64_t Limit = UINT32_MAX;
  // Operations * InsertPct / 100, without overflowing the product.
  const uint64_t InsertOps = Cfg.Operations / 100 * Cfg.Mix.InsertPct +
                             Cfg.Operations % 100 * Cfg.Mix.InsertPct / 100 +
                             Cfg.Threads;
  if (Cfg.Records > Limit || InsertOps > Limit / 8)
    return 0;
  const uint64_t Nodes = DS::nodesFor(Cfg.Records) + InsertOps * 8 + 4096;
  return Nodes >= Limit ? 0 : static_cast<uint32_t>(Nodes);
}

template <typename B, template <typename> class DSTmpl>
OltpResult runWith(const OltpConfig &Cfg, typename B::Stm &Stm) {
  using DS = DSTmpl<B>;
  OltpResult R;

  typename DS::Pool Nodes(poolCapacity<DSTmpl>(Cfg));
  DS Ds(Nodes);

  // Preload [1, Records] before any worker starts: nothing can conflict,
  // so the structure's own insert code runs on direct stores and builds
  // the structure a transactional thread-0 load would.
  for (uint64_t K = 1; K <= Cfg.Records; ++K)
    Ds.insertDirect(K, valueFor(K, 0));

  const StatsSnapshot Before = Stm.stats().aggregate();
  ZipfianGen Zipf(Cfg.Records, Cfg.ZipfTheta);

  std::vector<LatencyHistogram> Hists(Cfg.Threads);
  std::vector<uint64_t> Inserted(Cfg.Threads, 0);

  const Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(Cfg.Seed * 0x9e3779b97f4a7c15ULL + T + 1);
      typename B::Txn Txn(Stm, static_cast<ThreadId>(T));
      LatencyHistogram &H = Hists[T];
      // Fresh insert keys above the preloaded keyspace, striped by
      // thread so inserts never collide on the key itself.
      uint64_t NextFresh = Cfg.Records + 1 + T;

      for (uint64_t I = T; I < Cfg.Operations; I += Cfg.Threads) {
        // All nondeterminism drawn before the transaction: bodies must
        // be replay-deterministic under retry.
        const uint64_t Roll = Rng.nextBounded(100);
        OpKind Kind;
        if (Roll < Cfg.Mix.ReadPct)
          Kind = OpKind::Read;
        else if (Roll < Cfg.Mix.ReadPct + Cfg.Mix.UpdatePct)
          Kind = OpKind::Update;
        else if (Roll <
                 Cfg.Mix.ReadPct + Cfg.Mix.UpdatePct + Cfg.Mix.InsertPct)
          Kind = OpKind::Insert;
        else
          Kind = OpKind::Scan;
        const uint64_t Key = Kind == OpKind::Insert
                                 ? NextFresh
                                 : scrambleToKey(Zipf.next(Rng),
                                                 Cfg.Records);
        const uint64_t Value = valueFor(Key, I + 1);

        // Open loop: latency is measured from the operation's scheduled
        // arrival, so time spent queued behind a slow commit counts.
        Clock::time_point Start;
        if (Cfg.ArrivalRate > 0) {
          Start = T0 + std::chrono::nanoseconds(static_cast<uint64_t>(
                           static_cast<double>(I) * 1e9 / Cfg.ArrivalRate));
          while (Clock::now() < Start)
            std::this_thread::yield();
        } else {
          Start = Clock::now();
        }

        bool InsertOk = false;
        Txn.run(static_cast<TxId>(I), [&](typename B::Txn &Tx) {
          switch (Kind) {
          case OpKind::Read:
            Ds.find(Tx, Key);
            break;
          case OpKind::Update:
            Ds.update(Tx, Key, Value);
            break;
          case OpKind::Insert:
            InsertOk = Ds.insert(Tx, Key, Value);
            break;
          case OpKind::Scan: {
            uint64_t Sum = 0;
            Ds.scan(Tx, Key, Cfg.ScanLength, Sum);
            break;
          }
          }
        });
        const Clock::time_point End = Clock::now();
        H.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(End -
                                                                 Start)
                .count()));
        if (InsertOk) {
          ++Inserted[T];
          NextFresh += Cfg.Threads;
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  R.WallSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();

  for (const LatencyHistogram &H : Hists)
    R.Latency.merge(H);
  R.Operations = R.Latency.count();

  const StatsSnapshot After = Stm.stats().aggregate();
  R.Commits = After.Commits - Before.Commits;
  R.Aborts = After.Aborts - Before.Aborts;
  R.CommitRingLookups = After.CommitRingLookups - Before.CommitRingLookups;
  R.CommitRingMisses = After.CommitRingMisses - Before.CommitRingMisses;
  R.CrossShardCommits = After.CrossShardCommits - Before.CrossShardCommits;

  uint64_t TotalInserted = 0;
  for (uint64_t N : Inserted)
    TotalInserted += N;
  if (!Ds.validateDirect())
    R.Error = "structure validation failed after the run";
  else if (Ds.sizeDirect() != Cfg.Records + TotalInserted)
    R.Error = "element accounting mismatch after the run";
  R.Ok = R.Error.empty();
  return R;
}

template <typename B>
OltpResult runOnBackend(const OltpConfig &Cfg, typename B::Stm &Stm) {
  if (Cfg.Structure == "skiplist")
    return runWith<B, TmSkipList>(Cfg, Stm);
  return runWith<B, TmBTree>(Cfg, Stm);
}

} // namespace

OltpResult gstm::runOltp(const OltpConfig &Cfg) {
  OltpResult R;
  if (Cfg.Structure != "skiplist" && Cfg.Structure != "btree") {
    R.Error = "unknown structure '" + Cfg.Structure +
              "' (want skiplist or btree)";
    return R;
  }
  const bool Sharded = Cfg.Backend == "sharded" || Cfg.Shards > 0;
  if (!Sharded && Cfg.Backend != "tl2" && Cfg.Backend != "orec-eager" &&
      Cfg.Backend != "libtm") {
    R.Error = "unknown backend '" + Cfg.Backend +
              "' (want tl2, orec-eager, libtm or sharded)";
    return R;
  }
  if (Sharded && Cfg.Backend != "sharded" && Cfg.Backend != "tl2") {
    R.Error = "--shards only applies to the sharded backend";
    return R;
  }
  if (Cfg.Mix.total() != 100) {
    R.Error = "operation mix must sum to 100 percent";
    return R;
  }
  if (Cfg.Threads == 0 || Cfg.Records == 0) {
    R.Error = "threads and records must be positive";
    return R;
  }
  if (Cfg.Threads > StatsShardCount) {
    R.Error = "at most " + std::to_string(StatsShardCount) + " threads";
    return R;
  }
  if ((Cfg.Structure == "skiplist" ? poolCapacity<TmSkipList>(Cfg)
                                    : poolCapacity<TmBTree>(Cfg)) == 0) {
    R.Error = "records plus inserted keys overflow the node pool's "
              "32-bit capacity";
    return R;
  }

  if (Sharded) {
    ShardConfig C;
    if (Cfg.Shards)
      C.ShardCount = Cfg.Shards;
    if (!isValidShardCount(C.ShardCount)) {
      R.Error = "shard count must be a power of two in [1, " +
                std::to_string(MaxShardCount) + "]";
      return R;
    }
    if (Cfg.RingBits)
      C.CommitRingBits = Cfg.RingBits;
    ShardedStm Stm(C);
    return runOnBackend<ShardBackend>(Cfg, Stm);
  }
  EngineConfig C;
  if (Cfg.RingBits)
    C.CommitRingBits = Cfg.RingBits;
  if (Cfg.Backend == "tl2") {
    Tl2Stm Stm(C);
    return runOnBackend<Tl2Backend>(Cfg, Stm);
  }
  if (Cfg.Backend == "orec-eager") {
    OrecEagerStm Stm(C);
    return runOnBackend<OrecEagerBackend>(Cfg, Stm);
  }
  LibTm Tm(C);
  return runOnBackend<LibTmBackend>(Cfg, Tm);
}
