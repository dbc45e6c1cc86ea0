//===- tests/rbtree_test.cpp - transactional red-black tree tests ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmRbTree.h"

#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

using namespace gstm;

namespace {
struct RbFixture : ::testing::Test {
  Tl2Stm Stm;
  TmRbTree::Pool Pool{1 << 16};
  TmRbTree Tree{Pool};
  Tl2Txn Txn{Stm, 0};
};
} // namespace

TEST_F(RbFixture, InsertFindUpdateRemove) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Tree.insert(Tx, 10, 100));
    EXPECT_TRUE(Tree.insert(Tx, 5, 50));
    EXPECT_TRUE(Tree.insert(Tx, 15, 150));
    EXPECT_FALSE(Tree.insert(Tx, 10, 999)) << "duplicate key";
  });
  EXPECT_TRUE(Tree.validateDirect());
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Tree.find(Tx, 5).value(), 50u);
    EXPECT_FALSE(Tree.find(Tx, 6).has_value());
    EXPECT_TRUE(Tree.update(Tx, 5, 55));
    EXPECT_FALSE(Tree.update(Tx, 6, 66));
    EXPECT_EQ(Tree.find(Tx, 5).value(), 55u);
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Tree.remove(Tx, 10).value(), 100u);
    EXPECT_FALSE(Tree.remove(Tx, 10).has_value());
    EXPECT_EQ(Tree.size(Tx), 2u);
  });
  EXPECT_TRUE(Tree.validateDirect());
}

TEST_F(RbFixture, AscendingInsertStaysBalancedEnough) {
  // Ascending insertion is the classic BST worst case; the RB invariants
  // (checked by validateDirect) bound the height.
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 512; ++K)
      EXPECT_TRUE(Tree.insert(Tx, K, K));
  });
  EXPECT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), 512u);

  uint64_t Prev = 0;
  bool First = true;
  size_t Count = 0;
  Tree.forEachDirect([&](uint64_t K, uint64_t V) {
    EXPECT_EQ(K, V);
    if (!First) {
      EXPECT_GT(K, Prev);
    }
    Prev = K;
    First = false;
    ++Count;
  });
  EXPECT_EQ(Count, 512u);
}

TEST_F(RbFixture, DescendingThenDrainFully) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 256; K > 0; --K)
      Tree.insert(Tx, K, K);
  });
  EXPECT_TRUE(Tree.validateDirect());
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 1; K <= 256; ++K)
      EXPECT_TRUE(Tree.remove(Tx, K).has_value());
  });
  EXPECT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), 0u);
}

TEST_F(RbFixture, RandomOpsMatchStdMap) {
  // Property test: a long random op sequence must stay equivalent to
  // std::map and preserve every red-black invariant throughout.
  std::map<uint64_t, uint64_t> Ref;
  SplitMix64 Rng(1234);

  for (int Op = 0; Op < 4000; ++Op) {
    uint64_t Key = Rng.nextBounded(300);
    uint64_t Choice = Rng.nextBounded(4);
    Txn.run(0, [&](Tl2Txn &Tx) {
      switch (Choice) {
      case 0: {
        bool Inserted = Tree.insert(Tx, Key, Op);
        EXPECT_EQ(Inserted, Ref.find(Key) == Ref.end());
        break;
      }
      case 1: {
        auto Removed = Tree.remove(Tx, Key);
        EXPECT_EQ(Removed.has_value(), Ref.count(Key) == 1);
        break;
      }
      case 2: {
        auto Found = Tree.find(Tx, Key);
        auto It = Ref.find(Key);
        ASSERT_EQ(Found.has_value(), It != Ref.end());
        if (Found) {
          EXPECT_EQ(*Found, It->second);
        }
        break;
      }
      default: {
        bool Updated = Tree.update(Tx, Key, Op + 7);
        EXPECT_EQ(Updated, Ref.find(Key) != Ref.end());
        break;
      }
      }
    });
    // Mirror committed effects.
    if (Choice == 0)
      Ref.emplace(Key, Op);
    else if (Choice == 1)
      Ref.erase(Key);
    else if (Choice == 3) {
      auto It = Ref.find(Key);
      if (It != Ref.end())
        It->second = Op + 7;
    }
    if (Op % 256 == 0) {
      ASSERT_TRUE(Tree.validateDirect()) << "after op " << Op;
    }
  }
  ASSERT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), Ref.size());

  auto It = Ref.begin();
  Tree.forEachDirect([&](uint64_t K, uint64_t V) {
    ASSERT_NE(It, Ref.end());
    EXPECT_EQ(K, It->first);
    EXPECT_EQ(V, It->second);
    ++It;
  });
  EXPECT_EQ(It, Ref.end());
}

TEST_F(RbFixture, AbortedOperationLeavesTreeUntouched) {
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 32; ++K)
      Tree.insert(Tx, K * 2, K);
  });
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    Tree.insert(Tx, 101, 1);
    Tree.remove(Tx, 0);
    if (++Attempts == 1)
      Tx.retryAbort();
  });
  // After the final (committed) attempt the effects appear exactly once.
  EXPECT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), 32u); // +1 insert, -1 remove
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Tree.find(Tx, 101).has_value());
    EXPECT_FALSE(Tree.find(Tx, 0).has_value());
  });
}

TEST(TmRbTreeTest, RetriedInsertReusesItsSpareNode) {
  // An insert whose transaction aborts 100 times before it commits takes
  // one node from the pool, not 101: every retry reuses the spare.
  Tl2Stm Stm;
  TmRbTree::Pool Pool(256);
  TmRbTree Tree(Pool);
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 16; ++K)
      Tree.insert(Tx, K * 2, K);
  });
  const uint32_t Before = Pool.used();
  uint32_t Spare = TmRbTree::Pool::Null;
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Tree.insert(Tx, 7, 70, &Spare));
    if (++Attempts <= 100)
      Tx.retryAbort();
  });
  EXPECT_EQ(Attempts, 101);
  EXPECT_EQ(Pool.used(), Before + 1);
  EXPECT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), 17u);
  Txn.run(0, [&](Tl2Txn &Tx) { EXPECT_EQ(Tree.find(Tx, 7), 70u); });
}

TEST(RbTreeConcurrency, ParallelDisjointInsertsValidate) {
  Tl2Stm Stm;
  TmRbTree::Pool Pool(1 << 15);
  TmRbTree Tree(Pool);
  constexpr unsigned Threads = 6;
  constexpr unsigned PerThread = 80;

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < PerThread; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) {
          Tree.insert(Tx, T + I * Threads, T);
        });
    });
  for (auto &W : Workers)
    W.join();

  EXPECT_TRUE(Tree.validateDirect());
  EXPECT_EQ(Tree.sizeDirect(), uint64_t{Threads} * PerThread);
}

TEST(RbTreeConcurrency, MixedInsertRemoveStaysValid) {
  Tl2Stm Stm;
  TmRbTree::Pool Pool(1 << 16);
  TmRbTree Tree(Pool);
  {
    Tl2Txn Init(Stm, 0);
    Init.run(0, [&](Tl2Txn &Tx) {
      for (uint64_t K = 0; K < 128; ++K)
        Tree.insert(Tx, K, 0);
    });
  }

  constexpr unsigned Threads = 5;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      SplitMix64 Rng(T * 31 + 1);
      for (unsigned I = 0; I < 150; ++I) {
        uint64_t Key = Rng.nextBounded(192);
        if (Rng.nextBounded(2) == 0)
          Txn.run(0, [&](Tl2Txn &Tx) { Tree.insert(Tx, Key, T); });
        else
          Txn.run(0, [&](Tl2Txn &Tx) { Tree.remove(Tx, Key); });
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_TRUE(Tree.validateDirect());
}
