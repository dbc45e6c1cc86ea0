//===- tests/tmds_test.cpp - Transactional skiplist / B-tree tests -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Covers the tmds containers (src/tmds): map semantics against a std::map
// oracle, structural invariants via the direct validators, quiescent
// direct inserts that build the transactional structure cell for cell
// within each structure's pool bound, deterministic skiplist tower
// heights, backend-genericity (the same template body runs on TL2 flat
// and sharded, LibTm and orec-eager), scan semantics,
// rollback of structural changes, concurrent per-thread-partitioned
// mutation with exact final contents, atomic replacements seen whole
// by concurrent full scans, and the B-tree's key blocks: read-after-write
// through a transaction's own block writes, and which concurrent commits
// a descent conflicts with.
//
//===----------------------------------------------------------------------===//

#include "tmds/TmBTree.h"
#include "tmds/TmSkipList.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

using namespace gstm;

namespace {

//===----------------------------------------------------------------------===//
// Typed harness: every test body runs for each (structure, backend) pair.
//===----------------------------------------------------------------------===//

template <typename B> struct SkipListCase {
  using Backend = B;
  using Structure = TmSkipList<B>;
  static constexpr const char *Kind = "skiplist";
};
template <typename B> struct BTreeCase {
  using Backend = B;
  using Structure = TmBTree<B>;
  static constexpr const char *Kind = "btree";
};

/// One structure + its pool + a runtime, wired for a test.
template <typename CaseT> struct Fixture {
  using B = typename CaseT::Backend;
  using Structure = typename CaseT::Structure;
  using Stm = typename B::Stm;
  using Txn = typename B::Txn;

  explicit Fixture(uint32_t PoolCap = 1 << 14)
      : Pool(PoolCap), Ds(Pool) {}

  typename Structure::Pool Pool;
  Stm S;
  Structure Ds;
};

using SkipTl2 = SkipListCase<Tl2Backend>;
using SkipLibTm = SkipListCase<LibTmBackend>;
using BTreeTl2 = BTreeCase<Tl2Backend>;
using BTreeLibTm = BTreeCase<LibTmBackend>;
// orec-eager (src/engine) rides the same TmBackend trait, so every
// structure test doubles as a backend-conformance check for it.
using SkipOrec = SkipListCase<OrecEagerBackend>;
using BTreeOrec = BTreeCase<OrecEagerBackend>;
// TL2 on the sharded tier (4 shards): node cells scatter across shard
// partitions, so most structural transactions commit cross-shard.
using SkipShard = SkipListCase<ShardBackend>;
using BTreeShard = BTreeCase<ShardBackend>;

template <typename CaseT> class TmdsTest : public ::testing::Test {};
using AllCases =
    ::testing::Types<SkipTl2, SkipLibTm, SkipOrec, SkipShard, BTreeTl2,
                     BTreeLibTm, BTreeOrec, BTreeShard>;
TYPED_TEST_SUITE(TmdsTest, AllCases);

//===----------------------------------------------------------------------===//
// Map semantics against a std::map oracle
//===----------------------------------------------------------------------===//

TYPED_TEST(TmdsTest, MatchesMapOracleThroughMixedOps) {
  Fixture<TypeParam> F;
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  std::map<uint64_t, uint64_t> Oracle;
  std::mt19937_64 Rng(7);

  for (int Op = 0; Op < 4000; ++Op) {
    uint64_t Key = 1 + Rng() % 512; // small keyspace => plenty of hits
    uint64_t Value = Rng();
    switch (Rng() % 4) {
    case 0: {
      bool Inserted = false;
      Tx.run(0, [&](auto &T) { Inserted = F.Ds.insert(T, Key, Value); });
      EXPECT_EQ(Inserted, Oracle.emplace(Key, Value).second);
      break;
    }
    case 1: {
      bool Updated = false;
      Tx.run(1, [&](auto &T) { Updated = F.Ds.update(T, Key, Value); });
      auto It = Oracle.find(Key);
      EXPECT_EQ(Updated, It != Oracle.end());
      if (It != Oracle.end()) {
        It->second = Value;
      }
      break;
    }
    case 2: {
      std::optional<uint64_t> Removed;
      Tx.run(2, [&](auto &T) { Removed = F.Ds.remove(T, Key); });
      auto It = Oracle.find(Key);
      if (It != Oracle.end()) {
        ASSERT_TRUE(Removed.has_value());
        EXPECT_EQ(*Removed, It->second);
        Oracle.erase(It);
      } else {
        EXPECT_FALSE(Removed.has_value());
      }
      break;
    }
    default: {
      std::optional<uint64_t> Found;
      Tx.run(3, [&](auto &T) { Found = F.Ds.find(T, Key); });
      auto It = Oracle.find(Key);
      EXPECT_EQ(Found.has_value(), It != Oracle.end());
      if (It != Oracle.end())
        EXPECT_EQ(*Found, It->second);
      break;
    }
    }
  }

  EXPECT_TRUE(F.Ds.validateDirect());
  EXPECT_EQ(F.Ds.sizeDirect(), Oracle.size());
  auto It = Oracle.begin();
  F.Ds.forEachDirect([&](uint64_t K, uint64_t V) {
    ASSERT_NE(It, Oracle.end());
    EXPECT_EQ(K, It->first);
    EXPECT_EQ(V, It->second);
    ++It;
  });
  EXPECT_EQ(It, Oracle.end());
}

TYPED_TEST(TmdsTest, ValidatorHoldsThroughGrowthAndShrink) {
  // Drive through every structural transition: grow through node splits
  // / tower links, then shrink through borrows and merges back to empty.
  Fixture<TypeParam> F(1 << 15);
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  constexpr uint64_t N = 600; // > MinDegree^2 levels of splits

  for (uint64_t K = 1; K <= N; ++K) {
    Tx.run(0, [&](auto &T) { F.Ds.insert(T, K * 7919, K); });
    if (K % 97 == 0) {
      ASSERT_TRUE(F.Ds.validateDirect()) << "after insert " << K;
    }
  }
  EXPECT_EQ(F.Ds.sizeDirect(), N);

  for (uint64_t K = 1; K <= N; ++K) {
    std::optional<uint64_t> Removed;
    Tx.run(1, [&](auto &T) { Removed = F.Ds.remove(T, K * 7919); });
    ASSERT_TRUE(Removed.has_value()) << K;
    EXPECT_EQ(*Removed, K);
    if (K % 59 == 0) {
      ASSERT_TRUE(F.Ds.validateDirect()) << "after remove " << K;
    }
  }
  EXPECT_EQ(F.Ds.sizeDirect(), 0u);
  EXPECT_TRUE(F.Ds.validateDirect());
}

TYPED_TEST(TmdsTest, ScanVisitsAscendingRangeFromStart) {
  Fixture<TypeParam> F;
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  // Keys 10, 20, ..., 1000 with value = key.
  for (uint64_t K = 10; K <= 1000; K += 10)
    Tx.run(0, [&](auto &T) { F.Ds.insert(T, K, K); });

  uint64_t Sum = 0;
  size_t Taken = 0;
  // From 95 (absent): first visited is 100; 5 entries 100..140.
  Tx.run(1, [&](auto &T) {
    Sum = 0;
    Taken = F.Ds.scan(T, 95, 5, Sum);
  });
  EXPECT_EQ(Taken, 5u);
  EXPECT_EQ(Sum, uint64_t{100 + 110 + 120 + 130 + 140});

  // From an existing key: inclusive.
  Tx.run(2, [&](auto &T) {
    Sum = 0;
    Taken = F.Ds.scan(T, 990, 10, Sum);
  });
  EXPECT_EQ(Taken, 2u);
  EXPECT_EQ(Sum, uint64_t{990 + 1000});

  // Past the end: empty.
  Tx.run(3, [&](auto &T) {
    Sum = 0;
    Taken = F.Ds.scan(T, 1001, 4, Sum);
  });
  EXPECT_EQ(Taken, 0u);
  EXPECT_EQ(Sum, 0u);
}

TYPED_TEST(TmdsTest, TransactionalSizeAgreesWithDirect) {
  Fixture<TypeParam> F;
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  for (uint64_t K = 1; K <= 40; ++K)
    Tx.run(0, [&](auto &T) { F.Ds.insert(T, K, K); });
  uint64_t TxnSize = 0;
  Tx.run(1, [&](auto &T) { TxnSize = F.Ds.size(T); });
  EXPECT_EQ(TxnSize, 40u);
  EXPECT_EQ(F.Ds.sizeDirect(), 40u);
}

//===----------------------------------------------------------------------===//
// Quiescent direct inserts (the OLTP preload)
//===----------------------------------------------------------------------===//

/// Keys 1..N, ascending or in a fixed shuffled order.
std::vector<uint64_t> loadOrder(uint64_t N, bool Shuffled) {
  std::vector<uint64_t> Keys(N);
  for (uint64_t I = 0; I < N; ++I)
    Keys[I] = I + 1;
  if (Shuffled)
    std::shuffle(Keys.begin(), Keys.end(), std::mt19937_64(N));
  return Keys;
}

/// Raw words of every cell \p Ds owns, in its visiting order.
template <typename Structure>
std::vector<uint64_t> cellWords(const Structure &Ds) {
  std::vector<uint64_t> Words;
  Ds.forEachCellDirect(
      [&](const void *, uint64_t Raw) { Words.push_back(Raw); });
  return Words;
}

TYPED_TEST(TmdsTest, DirectInsertBuildsTheTransactionalStructure) {
  // insertDirect runs insert's own code on direct accesses, so loading
  // the same keys either way must give the same pool and the same cells,
  // size stripes included. Re-inserting loaded keys probes the duplicate
  // path, which can still split full B-tree nodes.
  for (bool Shuffled : {false, true}) {
    SCOPED_TRACE(Shuffled ? "shuffled" : "ascending");
    const std::vector<uint64_t> Keys = loadOrder(3000, Shuffled);
    Fixture<TypeParam> ViaTxn, Direct;
    typename Fixture<TypeParam>::Txn Tx(ViaTxn.S, 0);
    for (size_t Lo = 0; Lo < Keys.size(); Lo += 64)
      Tx.run(static_cast<TxId>(Lo), [&](auto &T) {
        for (size_t I = Lo; I < std::min(Keys.size(), Lo + 64); ++I)
          EXPECT_TRUE(ViaTxn.Ds.insert(T, Keys[I], Keys[I] * 3));
      });
    for (uint64_t K : Keys)
      ASSERT_TRUE(Direct.Ds.insertDirect(K, K * 3));
    for (size_t I = 0; I < 100; ++I) {
      bool Inserted = true;
      Tx.run(1, [&](auto &T) {
        Inserted = ViaTxn.Ds.insert(T, Keys[I], 0);
      });
      EXPECT_FALSE(Inserted);
      EXPECT_FALSE(Direct.Ds.insertDirect(Keys[I], 0));
    }

    EXPECT_TRUE(ViaTxn.Ds.validateDirect());
    EXPECT_TRUE(Direct.Ds.validateDirect());
    EXPECT_EQ(Direct.Ds.sizeDirect(), Keys.size());
    EXPECT_EQ(Direct.Pool.used(), ViaTxn.Pool.used());
    EXPECT_EQ(cellWords(Direct.Ds), cellWords(ViaTxn.Ds));
    // A multi-word cell registers only its first word; the traversals
    // compare every key.
    std::vector<std::pair<uint64_t, uint64_t>> DirectPairs, TxnPairs;
    Direct.Ds.forEachDirect(
        [&](uint64_t K, uint64_t V) { DirectPairs.emplace_back(K, V); });
    ViaTxn.Ds.forEachDirect(
        [&](uint64_t K, uint64_t V) { TxnPairs.emplace_back(K, V); });
    EXPECT_EQ(DirectPairs, TxnPairs);
  }
}

TYPED_TEST(TmdsTest, NodesForBoundsEveryLoad) {
  using Structure = typename Fixture<TypeParam>::Structure;
  for (uint64_t N : {0, 1, 7, 8, 15, 16, 4096, 1 << 16})
    for (bool Shuffled : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << N << (Shuffled ? " shuffled" : " ascending"));
      // Room beyond the bound, so a load that outgrows it fails here
      // instead of exhausting the pool.
      Fixture<TypeParam> F(
          static_cast<uint32_t>(2 * Structure::nodesFor(N) + 16));
      for (uint64_t K : loadOrder(N, Shuffled))
        F.Ds.insertDirect(K, K);
      ASSERT_TRUE(F.Ds.validateDirect());
      EXPECT_LE(F.Pool.used(), Structure::nodesFor(N));
      if (std::string_view(TypeParam::Kind) == "skiplist") {
        EXPECT_EQ(F.Pool.used(), Structure::nodesFor(N));
      }
    }
}

TYPED_TEST(TmdsTest, ForeignExceptionRollsBackStructuralChanges) {
  Fixture<TypeParam> F;
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  for (uint64_t K = 1; K <= 200; ++K)
    Tx.run(0, [&](auto &T) { F.Ds.insert(T, K * 2, K); });

  // One body grows the structure (node splits / new towers) and unlinks
  // existing keys, then throws something that is not the STM's own
  // abort: every structural write must be rolled back.
  EXPECT_THROW(Tx.run(1,
                      [&](auto &T) {
                        for (uint64_t K = 1; K <= 300; ++K)
                          F.Ds.insert(T, K * 2 + 1, K);
                        for (uint64_t K = 1; K <= 50; ++K)
                          F.Ds.remove(T, K * 4);
                        throw std::runtime_error("body failed");
                      }),
               std::runtime_error);

  EXPECT_TRUE(F.Ds.validateDirect());
  EXPECT_EQ(F.Ds.sizeDirect(), 200u);
  uint64_t Next = 1;
  bool Unchanged = true;
  F.Ds.forEachDirect([&](uint64_t K, uint64_t V) {
    Unchanged &= K == Next * 2 && V == Next;
    ++Next;
  });
  EXPECT_TRUE(Unchanged);
  EXPECT_EQ(Next, 201u);
  EXPECT_FALSE(F.Ds.anyCellLockedDirect(F.S));

  // Nothing stranded: the structure keeps taking transactions.
  bool Inserted = false;
  Tx.run(2, [&](auto &T) { Inserted = F.Ds.insert(T, 3, 3); });
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(F.Ds.sizeDirect(), 201u);
}

//===----------------------------------------------------------------------===//
// Concurrency: per-thread key partitions make final contents exact
//===----------------------------------------------------------------------===//

TYPED_TEST(TmdsTest, ConcurrentPartitionedMutationIsExact) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 300;
  Fixture<TypeParam> F(1 << 16);

  // Every thread owns keys == T (mod Threads): inserts all of them, then
  // removes the odd multiples — final contents are schedule-independent.
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      typename Fixture<TypeParam>::Txn Tx(F.S,
                                          static_cast<ThreadId>(T));
      for (uint64_t I = 0; I < PerThread; ++I) {
        uint64_t Key = 1 + T + I * Threads;
        Tx.run(0, [&](auto &Body) { F.Ds.insert(Body, Key, Key * 3); });
      }
      for (uint64_t I = 1; I < PerThread; I += 2) {
        uint64_t Key = 1 + T + I * Threads;
        Tx.run(1, [&](auto &Body) { F.Ds.remove(Body, Key); });
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_TRUE(F.Ds.validateDirect());
  EXPECT_EQ(F.Ds.sizeDirect(), uint64_t{Threads} * ((PerThread + 1) / 2));
  uint64_t Seen = 0;
  bool ValuesOk = true;
  F.Ds.forEachDirect([&](uint64_t K, uint64_t V) {
    ++Seen;
    // Only even multiples survive, each with value 3*key.
    ValuesOk &= (((K - 1) / Threads) % 2 == 0) && V == K * 3;
  });
  EXPECT_TRUE(ValuesOk);
  EXPECT_EQ(Seen, F.Ds.sizeDirect());
  EXPECT_FALSE(F.Ds.anyCellLockedDirect(F.S));
}

TYPED_TEST(TmdsTest, ConcurrentScansSeeReplacementsWhole) {
  constexpr unsigned Writers = 2;
  constexpr unsigned Readers = 2;
  constexpr uint64_t Live = 32; // keys each writer holds at any commit
  constexpr uint64_t Steps = 150;
  constexpr uint64_t Total = uint64_t{Writers} * Live;
  Fixture<TypeParam> F(1 << 16);

  // Writer W owns keys 1 + W + Writers * I (interleaved with the other
  // writer's), every value 1. Step I removes its oldest key and inserts
  // a new one in the same transaction, so a committed full scan always
  // sees exactly Total entries summing to Total.
  auto KeyOf = [](unsigned W, uint64_t I) { return 1 + W + Writers * I; };
  {
    typename Fixture<TypeParam>::Txn Tx(F.S, 0);
    for (unsigned W = 0; W < Writers; ++W)
      for (uint64_t I = 0; I < Live; ++I)
        Tx.run(0, [&](auto &T) { F.Ds.insert(T, KeyOf(W, I), 1); });
  }

  std::atomic<unsigned> WritersLeft{Writers};
  std::atomic<uint64_t> TornScans{0}, Scans{0}, MissedRemoves{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Writers; ++W)
    Workers.emplace_back([&, W] {
      typename Fixture<TypeParam>::Txn Tx(F.S, static_cast<ThreadId>(W));
      for (uint64_t I = 0; I < Steps; ++I) {
        bool Removed = false;
        Tx.run(1, [&](auto &T) {
          Removed = F.Ds.remove(T, KeyOf(W, I)).has_value();
          F.Ds.insert(T, KeyOf(W, I + Live), 1);
        });
        MissedRemoves += Removed ? 0 : 1;
      }
      --WritersLeft;
    });
  for (unsigned R = 0; R < Readers; ++R)
    Workers.emplace_back([&, R] {
      typename Fixture<TypeParam>::Txn Tx(
          F.S, static_cast<ThreadId>(Writers + R));
      for (uint64_t Done = 0; WritersLeft.load() != 0 || Done < 10; ++Done) {
        size_t Taken = 0;
        uint64_t Sum = 0, Size = 0;
        Tx.run(2, [&](auto &T) {
          Sum = 0;
          Taken = F.Ds.scan(T, 0, size_t{1} << 20, Sum);
          Size = F.Ds.size(T);
        });
        if (Taken != Total || Sum != Total || Size != Total)
          ++TornScans;
        ++Scans;
      }
    });
  for (std::thread &T : Workers)
    T.join();

  EXPECT_EQ(TornScans.load(), 0u) << "of " << Scans.load() << " scans";
  EXPECT_EQ(MissedRemoves.load(), 0u);
  EXPECT_TRUE(F.Ds.validateDirect());
  EXPECT_EQ(F.Ds.sizeDirect(), Total);
  uint64_t Seen = 0;
  bool KeysOk = true;
  F.Ds.forEachDirect([&](uint64_t K, uint64_t) {
    ++Seen;
    // Only each writer's last Live keys survive.
    KeysOk &= (K - 1) / Writers >= Steps;
  });
  EXPECT_TRUE(KeysOk);
  EXPECT_EQ(Seen, Total);
  EXPECT_FALSE(F.Ds.anyCellLockedDirect(F.S));
}

//===----------------------------------------------------------------------===//
// B-tree key blocks, on every backend
//===----------------------------------------------------------------------===//

template <typename CaseT> class TmBTreeKeyBlockTest : public ::testing::Test {};
using BTreeCases = ::testing::Types<BTreeTl2, BTreeLibTm, BTreeOrec, BTreeShard>;
TYPED_TEST_SUITE(TmBTreeKeyBlockTest, BTreeCases);

TYPED_TEST(TmBTreeKeyBlockTest, TransactionReadsItsOwnKeyBlockWrites) {
  using Tree = typename Fixture<TypeParam>::Structure;
  Fixture<TypeParam> F;
  typename Fixture<TypeParam>::Txn Tx(F.S, 0);
  // A full root leaf, so the transaction's first insert splits it.
  for (uint64_t K = 1; K <= Tree::MaxKeys; ++K)
    Tx.run(0, [&](auto &T) { F.Ds.insert(T, K * 10, K); });

  // Every find after the first insert descends through key blocks this
  // transaction wrote: buffered on TL2, held in place on orec-eager.
  constexpr uint64_t Added = 40;
  unsigned Attempts = 0;
  bool Ok = false;
  Tx.run(1, [&](auto &T) {
    ++Attempts;
    Ok = true;
    for (uint64_t K = 1; K <= Added; ++K)
      Ok &= F.Ds.insert(T, K * 10 + 5, K);
    for (uint64_t K = 1; K <= Added; ++K) {
      Ok &= F.Ds.find(T, K * 10 + 5) == std::optional<uint64_t>(K);
      Ok &= F.Ds.update(T, K * 10 + 5, K + 100);
      Ok &= F.Ds.find(T, K * 10 + 5) == std::optional<uint64_t>(K + 100);
    }
    for (uint64_t K = 1; K <= Added; ++K) {
      Ok &= F.Ds.remove(T, K * 10 + 5) == std::optional<uint64_t>(K + 100);
      Ok &= !F.Ds.find(T, K * 10 + 5).has_value();
    }
    for (uint64_t K = 1; K <= Tree::MaxKeys; ++K)
      Ok &= F.Ds.find(T, K * 10) == std::optional<uint64_t>(K);
  });
  EXPECT_EQ(Attempts, 1u);
  EXPECT_TRUE(Ok);

  EXPECT_TRUE(F.Ds.validateDirect());
  EXPECT_EQ(F.Ds.sizeDirect(), uint64_t{Tree::MaxKeys});
  uint64_t Next = 1;
  F.Ds.forEachDirect([&](uint64_t K, uint64_t V) {
    EXPECT_EQ(K, Next * 10);
    EXPECT_EQ(V, Next);
    ++Next;
  });
  EXPECT_EQ(Next, uint64_t{Tree::MaxKeys} + 1);
  EXPECT_FALSE(F.Ds.anyCellLockedDirect(F.S));
}

TYPED_TEST(TmBTreeKeyBlockTest, DescentConflictsWithKeyChangesNotValueUpdates) {
  using Tree = typename Fixture<TypeParam>::Structure;
  using Txn = typename Fixture<TypeParam>::Txn;
  // A writer descends to the leaf holding key 30 and, in its first
  // attempt only, lets a second descriptor commit \p Other before it
  // writes; returns the writer's attempts.
  auto WriterAttempts = [](auto &&Other) {
    Fixture<TypeParam> F;
    Txn Writer(F.S, 0), Intruder(F.S, 1);
    // Keys 10..10*(MaxKeys+1) ascending: the last insert splits the full
    // root leaf, so 10..10*(MinDegree-1) share the left leaf, with room.
    for (uint64_t K = 1; K <= Tree::MaxKeys + 1; ++K)
      Writer.run(0, [&](auto &T) { F.Ds.insert(T, K * 10, K); });
    unsigned Attempts = 0;
    Writer.run(1, [&](auto &T) {
      ++Attempts;
      F.Ds.find(T, 30);
      if (Attempts == 1)
        Intruder.run(2, [&](auto &U) { Other(F.Ds, U); });
      F.Ds.update(T, 30, 99);
    });
    EXPECT_TRUE(F.Ds.validateDirect());
    EXPECT_FALSE(F.Ds.anyCellLockedDirect(F.S));
    return Attempts;
  };
  static_assert(Tree::MinDegree - 1 >= 4, "keys 20..40 share a leaf");
  // Another value slot of the same leaf: the key block is untouched.
  EXPECT_EQ(WriterAttempts([](Tree &Ds, Txn &U) { Ds.update(U, 20, 7); }),
            1u);
  // A key inserted into that leaf rewrites its key block.
  EXPECT_EQ(WriterAttempts([](Tree &Ds, Txn &U) { Ds.insert(U, 35, 7); }),
            2u);
}

//===----------------------------------------------------------------------===//
// Structure-specific invariants
//===----------------------------------------------------------------------===//

TEST(TmSkipListTest, TowerHeightsAreDeterministicAndGeometric) {
  using List = TmSkipList<Tl2Backend>;
  uint64_t HeightCounts[List::MaxLevel + 1] = {};
  for (uint64_t K = 0; K < 100000; ++K) {
    uint32_t H = List::towerHeight(K);
    ASSERT_GE(H, 1u);
    ASSERT_LE(H, List::MaxLevel);
    EXPECT_EQ(H, List::towerHeight(K)) << "height must be a pure function";
    ++HeightCounts[H];
  }
  // Geometric with p = 1/2: each level holds roughly half the previous.
  EXPECT_GT(HeightCounts[1], 40000u);
  EXPECT_LT(HeightCounts[1], 60000u);
  EXPECT_GT(HeightCounts[2], 20000u);
  EXPECT_LT(HeightCounts[2], 30000u);
}

TEST(TmBTreeTest, NodesStayWithinOccupancyBounds) {
  // Sequential keys force maximum split pressure; the validator checks
  // occupancy at every probe.
  TmBTree<Tl2Backend>::Pool Pool(1 << 14);
  Tl2Stm S;
  TmBTree<Tl2Backend> Tree(Pool);
  Tl2Txn Tx(S, 0);
  for (uint64_t K = 1; K <= 2000; ++K) {
    Tx.run(0, [&](Tl2Txn &T) { Tree.insert(T, K, K); });
    if (K % 127 == 0) {
      ASSERT_TRUE(Tree.validateDirect()) << "after " << K;
    }
  }
  // Remove every third key: exercises borrow/merge against the bounds.
  for (uint64_t K = 3; K <= 2000; K += 3) {
    Tx.run(1, [&](Tl2Txn &T) { Tree.remove(T, K); });
    if (K % 123 == 0) {
      ASSERT_TRUE(Tree.validateDirect()) << "after removing " << K;
    }
  }
  EXPECT_TRUE(Tree.validateDirect());
}

TEST(TmdsBackendTest, CellEncodingsAgreeAcrossBackends) {
  // The fuzz differential relies on TVar's encoded word and TObj's
  // payload word 0 agreeing for word-sized values — pin that here.
  TVar<uint64_t> V64{0x1234567890abcdefULL};
  TObj<uint64_t> O64{0x1234567890abcdefULL};
  EXPECT_EQ(Tl2Backend::cellRaw(V64), LibTmBackend::cellRaw(O64));

  TVar<uint32_t> V32{0xdeadbeefu};
  TObj<uint32_t> O32{0xdeadbeefu};
  EXPECT_EQ(Tl2Backend::cellRaw(V32), LibTmBackend::cellRaw(O32));

  // A B-tree key block registers as one location whose raw word is word
  // 0: the key count in the low half, the leaf flag in the high half.
  TmBTree<Tl2Backend>::KeyBlock Blk{};
  Blk.Head = TmBTree<Tl2Backend>::KeyBlock::head(5, /*Leaf=*/true);
  Blk.Keys[0] = 42;
  TObj<TmBTree<Tl2Backend>::KeyBlock> Block{Blk};
  const uint64_t Word0 = uint64_t{1} << 32 | 5;
  EXPECT_EQ(Tl2Backend::cellRaw(Block), Word0);
  EXPECT_EQ(OrecEagerBackend::cellRaw(Block), Word0);
  EXPECT_EQ(ShardBackend::cellRaw(Block), Word0);
  EXPECT_EQ(LibTmBackend::cellRaw(Block), Word0);

  // Whole trees: one direct load registers the same words on every
  // backend, key blocks included.
  auto TreeWords = [](auto Backend) {
    using B = decltype(Backend);
    typename TmBTree<B>::Pool Pool(64);
    TmBTree<B> Tree(Pool);
    for (uint64_t K = 1; K <= 200; ++K)
      Tree.insertDirect(K * 7, K);
    return cellWords(Tree);
  };
  const std::vector<uint64_t> Tl2Words = TreeWords(Tl2Backend{});
  EXPECT_EQ(TreeWords(OrecEagerBackend{}), Tl2Words);
  EXPECT_EQ(TreeWords(ShardBackend{}), Tl2Words);
  EXPECT_EQ(TreeWords(LibTmBackend{}), Tl2Words);
}

} // namespace
