//===- tests/containers_test.cpp - TM container tests ----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmHashMap.h"
#include "stamp/TmList.h"
#include "stamp/TmQueue.h"

#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace gstm;

namespace {
struct ListFixture : ::testing::Test {
  Tl2Stm Stm;
  TmList::Pool Pool{4096};
  TmList List;
  Tl2Txn Txn{Stm, 0};
};
} // namespace

TEST_F(ListFixture, InsertFindRemove) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(List.insert(Tx, Pool, 5, 50));
    EXPECT_TRUE(List.insert(Tx, Pool, 3, 30));
    EXPECT_TRUE(List.insert(Tx, Pool, 7, 70));
    EXPECT_FALSE(List.insert(Tx, Pool, 5, 99)) << "duplicate key";
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(List.find(Tx, Pool, 3).value(), 30u);
    EXPECT_EQ(List.find(Tx, Pool, 5).value(), 50u);
    EXPECT_FALSE(List.find(Tx, Pool, 4).has_value());
    EXPECT_EQ(List.size(Tx, Pool), 3u);
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(List.remove(Tx, Pool, 5).value(), 50u);
    EXPECT_FALSE(List.remove(Tx, Pool, 5).has_value());
    EXPECT_EQ(List.size(Tx, Pool), 2u);
  });
}

TEST_F(ListFixture, KeepsSortedOrder) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K : {9, 1, 5, 3, 7, 2, 8, 4, 6})
      List.insert(Tx, Pool, K, K * 10);
  });
  std::vector<uint64_t> Keys;
  Txn.run(0, [&](Tl2Txn &Tx) {
    List.forEach(Tx, Pool, [&Keys](uint64_t K, uint64_t V) {
      Keys.push_back(K);
      EXPECT_EQ(V, K * 10);
    });
  });
  for (size_t I = 1; I < Keys.size(); ++I)
    EXPECT_LT(Keys[I - 1], Keys[I]);
  EXPECT_EQ(Keys.size(), 9u);
}

TEST_F(ListFixture, InsertOrAssignOverwrites) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(List.insertOrAssign(Tx, Pool, 1, 10));
    EXPECT_FALSE(List.insertOrAssign(Tx, Pool, 1, 20));
    EXPECT_EQ(List.find(Tx, Pool, 1).value(), 20u);
  });
}

TEST_F(ListFixture, RemoveHeadMiddleTail) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K : {1, 2, 3, 4, 5})
      List.insert(Tx, Pool, K, K);
    EXPECT_TRUE(List.remove(Tx, Pool, 1).has_value()); // head
    EXPECT_TRUE(List.remove(Tx, Pool, 3).has_value()); // middle
    EXPECT_TRUE(List.remove(Tx, Pool, 5).has_value()); // tail
    EXPECT_EQ(List.size(Tx, Pool), 2u);
    EXPECT_TRUE(List.find(Tx, Pool, 2).has_value());
    EXPECT_TRUE(List.find(Tx, Pool, 4).has_value());
  });
}

TEST(TmListTest, RetriedInsertReusesItsSpareNode) {
  // An insert whose transaction aborts 100 times before it commits takes
  // one node from the pool, not 101: every retry reuses the spare.
  Tl2Stm Stm;
  TmList::Pool Pool(256);
  TmList List;
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K : {2, 4, 6})
      List.insert(Tx, Pool, K, K);
  });
  const uint32_t Before = Pool.used();
  uint32_t Spare = TmList::Pool::Null;
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(List.insert(Tx, Pool, 5, 50, &Spare));
    if (++Attempts <= 100)
      Tx.retryAbort();
  });
  EXPECT_EQ(Attempts, 101);
  EXPECT_EQ(Pool.used(), Before + 1);
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(List.find(Tx, Pool, 5), 50u);
    EXPECT_EQ(List.size(Tx, Pool), 4u);
  });
}

TEST_F(ListFixture, WalkAbortsOnPrefixInsertNotOnPassedValueUpdate) {
  // A node's key and link are one object, its value a cell beside it: a
  // walk to 30 reads the link blocks of 10, 20 and 30. A peer's insert
  // of 15 rewrites 10's link block, so the walk's commit fails
  // validation and retries once; a peer's update of 20's value touches
  // no block the walk read, so the walk commits at once.
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K : {10, 20, 30, 40})
      List.insert(Tx, Pool, K, K * 10);
  });
  Tl2Txn Peer(Stm, 1);
  TVar<uint64_t> Walks{0}; // makes the walk a writer, so it validates

  auto WalkAcross = [&](auto &&PeerBody) {
    int Attempts = 0;
    Txn.run(0, [&](Tl2Txn &Tx) {
      EXPECT_EQ(List.find(Tx, Pool, 30), 300u);
      if (++Attempts == 1)
        // stm-lint: allow(R5) deliberate commit injection from a second
        // descriptor; single-threaded, so the nesting cannot deadlock.
        Peer.run(1, PeerBody);
      Tx.store(Walks, Tx.load(Walks) + 1);
    });
    return Attempts;
  };

  EXPECT_EQ(WalkAcross([&](Tl2Txn &P) {
              EXPECT_TRUE(List.insert(P, Pool, 15, 150));
            }),
            2)
      << "an insert into the walked prefix must abort the walk";
  EXPECT_EQ(WalkAcross([&](Tl2Txn &P) {
              EXPECT_FALSE(List.insertOrAssign(P, Pool, 20, 999));
            }),
            1)
      << "a value update of a passed node must not abort the walk";

  std::vector<std::pair<uint64_t, uint64_t>> Got;
  List.forEachDirect(Pool,
                     [&](uint64_t K, uint64_t V) { Got.emplace_back(K, V); });
  const std::vector<std::pair<uint64_t, uint64_t>> Want = {
      {10, 100}, {15, 150}, {20, 999}, {30, 300}, {40, 400}};
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(Walks.loadDirect(), 2u);
}

TEST_F(ListFixture, OneTransactionReadsThroughItsBufferedLinkBlocks) {
  // Inserting at the head and in the middle, then finding, removing and
  // finding again, all walk link blocks this transaction has buffered
  // and not yet published.
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K : {20, 40})
      List.insert(Tx, Pool, K, K);
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(List.insert(Tx, Pool, 10, 1));  // head: new Head
    EXPECT_TRUE(List.insert(Tx, Pool, 30, 3));  // middle: 20's block
    EXPECT_EQ(List.find(Tx, Pool, 10), 1u);
    EXPECT_EQ(List.find(Tx, Pool, 30), 3u);
    EXPECT_EQ(List.find(Tx, Pool, 40), 40u);
    EXPECT_EQ(List.remove(Tx, Pool, 30), 3u);   // 20's block again
    EXPECT_FALSE(List.find(Tx, Pool, 30).has_value());
    EXPECT_EQ(List.find(Tx, Pool, 40), 40u);
    EXPECT_EQ(List.remove(Tx, Pool, 10), 1u);   // the buffered head
    EXPECT_FALSE(List.find(Tx, Pool, 10).has_value());
    EXPECT_TRUE(List.insert(Tx, Pool, 30, 33));
    EXPECT_EQ(List.size(Tx, Pool), 3u);
  });
  std::vector<uint64_t> Keys;
  List.forEachDirect(Pool, [&](uint64_t K, uint64_t) { Keys.push_back(K); });
  EXPECT_EQ(Keys, (std::vector<uint64_t>{20, 30, 40}));
  Txn.run(0, [&](Tl2Txn &Tx) { EXPECT_EQ(List.find(Tx, Pool, 30), 33u); });
}

TEST(TmListTest, NodesAreHalfALineAndNeverStraddleOne) {
  TmList::Pool Pool(64);
  for (uint32_t I = 0; I < 16; ++I) {
    const auto A = reinterpret_cast<uintptr_t>(&Pool[Pool.allocate()]);
    EXPECT_EQ(A % 32, 0u);
    EXPECT_EQ(A / 64, (A + sizeof(TmListNode) - 1) / 64);
  }
}

TEST(TmListConcurrency, DisjointInsertsAllLand) {
  Tl2Stm Stm;
  TmList::Pool Pool(8192);
  TmList List;
  constexpr unsigned Threads = 6;
  constexpr unsigned PerThread = 100;

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) {
          List.insert(Tx, Pool, T * PerThread + I, T);
        });
    });
  for (auto &W : Workers)
    W.join();

  size_t Count = 0;
  uint64_t PrevKey = 0;
  bool First = true;
  List.forEachDirect(Pool, [&](uint64_t K, uint64_t) {
    if (!First) {
      EXPECT_GT(K, PrevKey);
    }
    PrevKey = K;
    First = false;
    ++Count;
  });
  EXPECT_EQ(Count, size_t{Threads} * PerThread);
}

TEST(TmListConcurrency, RacingInsertsOfSameKeysOneWinner) {
  Tl2Stm Stm;
  TmList::Pool Pool(8192);
  TmList List;
  constexpr unsigned Threads = 6;
  constexpr unsigned Keys = 50;
  std::atomic<uint64_t> Wins{0};

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      uint64_t LocalWins = 0;
      for (unsigned K = 0; K < Keys; ++K) {
        bool Inserted = false;
        Txn.run(0, [&](Tl2Txn &Tx) {
          Inserted = List.insert(Tx, Pool, K, T);
        });
        if (Inserted)
          ++LocalWins;
      }
      Wins.fetch_add(LocalWins);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Wins.load(), Keys) << "exactly one insert per key must win";
}

TEST(TmHashMapTest, BasicOperations) {
  Tl2Stm Stm;
  TmList::Pool Pool(4096);
  TmHashMap Map(16);
  Tl2Txn Txn(Stm, 0);

  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 200; ++K)
      EXPECT_TRUE(Map.insert(Tx, Pool, K * 977 + 1, K));
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 200; ++K)
      EXPECT_EQ(Map.find(Tx, Pool, K * 977 + 1).value(), K);
    EXPECT_FALSE(Map.find(Tx, Pool, 2).has_value());
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Map.remove(Tx, Pool, 1).value(), 0u);
    EXPECT_FALSE(Map.find(Tx, Pool, 1).has_value());
  });
}

TEST(TmHashMapTest, RetriedInsertOrAssignReusesItsSpareNode) {
  // The spare slot reaches the bucket's list: 50 aborted attempts of a
  // creating insertOrAssign take one node from the pool, as does an
  // insert with its own spare.
  Tl2Stm Stm;
  TmList::Pool Pool(256);
  TmHashMap Map(4);
  Tl2Txn Txn(Stm, 0);
  const uint32_t Before = Pool.used();
  uint32_t Spare = TmList::Pool::Null;
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Map.insertOrAssign(Tx, Pool, 7, 70, &Spare));
    if (++Attempts <= 50)
      Tx.retryAbort();
  });
  EXPECT_EQ(Pool.used(), Before + 1);
  uint32_t InsertSpare = TmList::Pool::Null;
  Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Map.insert(Tx, Pool, 8, 80, &InsertSpare));
    if (++Attempts <= 50)
      Tx.retryAbort();
  });
  EXPECT_EQ(Pool.used(), Before + 2);
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Map.find(Tx, Pool, 7), 70u);
    EXPECT_EQ(Map.find(Tx, Pool, 8), 80u);
  });
}

TEST(TmHashMapTest, PowerOfTwoBucketRounding) {
  TmHashMap M1(1), M5(5), M64(64);
  EXPECT_EQ(M1.numBuckets(), 1u);
  EXPECT_EQ(M5.numBuckets(), 8u);
  EXPECT_EQ(M64.numBuckets(), 64u);
}

TEST(TmHashMapTest, LargestBucketCountRoundsWithoutWrapping) {
  // A map of 2^31 buckets is 16 GiB, so the rounding is checked alone.
  constexpr uint32_t Max = TmHashMap::MaxBuckets;
  EXPECT_EQ(TmHashMap::bucketCountFor(Max), Max);
  EXPECT_EQ(TmHashMap::bucketCountFor(Max / 2 + 1), Max);
  EXPECT_EQ(TmHashMap::bucketCountFor(Max / 2), Max / 2);
  EXPECT_EQ(TmHashMap::bucketCountFor(1), 1u);
}

TEST(TmHashMapTest, MatchesReferenceUnderRandomOps) {
  Tl2Stm Stm;
  TmList::Pool Pool(16384);
  TmHashMap Map(32);
  Tl2Txn Txn(Stm, 0);
  std::map<uint64_t, uint64_t> Ref;
  SplitMix64 Rng(77);

  for (int Op = 0; Op < 2000; ++Op) {
    uint64_t Key = Rng.nextBounded(256) + 1;
    uint64_t Choice = Rng.nextBounded(3);
    Txn.run(0, [&](Tl2Txn &Tx) {
      if (Choice == 0) {
        bool Inserted = Map.insert(Tx, Pool, Key, Op);
        EXPECT_EQ(Inserted, Ref.find(Key) == Ref.end());
      } else if (Choice == 1) {
        auto Removed = Map.remove(Tx, Pool, Key);
        EXPECT_EQ(Removed.has_value(), Ref.find(Key) != Ref.end());
      } else {
        auto Found = Map.find(Tx, Pool, Key);
        auto It = Ref.find(Key);
        ASSERT_EQ(Found.has_value(), It != Ref.end());
        if (Found) {
          EXPECT_EQ(*Found, It->second);
        }
      }
    });
    // Mirror the committed effect in the reference map.
    if (Choice == 0)
      Ref.emplace(Key, Op);
    else if (Choice == 1)
      Ref.erase(Key);
  }
}

TEST(TmQueueTest, FifoOrder) {
  Tl2Stm Stm;
  TmQueue Q(16);
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t I = 1; I <= 5; ++I)
      EXPECT_TRUE(Q.push(Tx, I * 11));
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t I = 1; I <= 5; ++I)
      EXPECT_EQ(Q.pop(Tx).value(), I * 11);
    EXPECT_FALSE(Q.pop(Tx).has_value());
  });
}

TEST(TmQueueTest, CapacityEnforced) {
  Tl2Stm Stm;
  TmQueue Q(3);
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Q.push(Tx, 1));
    EXPECT_TRUE(Q.push(Tx, 2));
    EXPECT_TRUE(Q.push(Tx, 3));
    EXPECT_FALSE(Q.push(Tx, 4)) << "full queue must reject";
    EXPECT_EQ(Q.size(Tx), 3u);
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Q.pop(Tx).value(), 1u);
    EXPECT_TRUE(Q.push(Tx, 4)) << "wrap-around after pop";
  });
}

TEST(TmQueueTest, ConcurrentPopsDrainExactlyOnce) {
  Tl2Stm Stm;
  constexpr uint64_t Items = 500;
  TmQueue Q(Items + 1);
  for (uint64_t I = 0; I < Items; ++I)
    Q.pushDirect(I);

  constexpr unsigned Threads = 6;
  std::vector<std::set<uint64_t>> Seen(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (;;) {
        std::optional<uint64_t> Item;
        Txn.run(0, [&](Tl2Txn &Tx) { Item = Q.pop(Tx); });
        if (!Item)
          break;
        Seen[T].insert(*Item);
      }
    });
  for (auto &W : Workers)
    W.join();

  std::set<uint64_t> All;
  size_t Total = 0;
  for (const auto &S : Seen) {
    Total += S.size();
    All.insert(S.begin(), S.end());
  }
  EXPECT_EQ(Total, Items) << "no item may be popped twice";
  EXPECT_EQ(All.size(), Items) << "every item must be popped";
}
