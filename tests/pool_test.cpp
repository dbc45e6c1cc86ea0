//===- tests/pool_test.cpp - TmPool and memory-discipline tests -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmPool.h"

#include "stamp/TmList.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace gstm;

namespace {
struct Node {
  int Payload = 0;
};

constexpr uintptr_t HugePage = uintptr_t{2} << 20;

/// The size of a TmBTree node (MinDegree 8): an arena of 8,192 spans
/// 3 MiB, so it takes the huge-page path.
struct BTreeSizedNode {
  uint64_t Words[48];
};
constexpr uint32_t LargeCapacity = 8192;
static_assert(sizeof(BTreeSizedNode) * LargeCapacity >= HugePage);

/// Counts constructions and destructions.
struct CountedNode {
  static inline int Constructed = 0, Destroyed = 0;
  uint64_t Words[48] = {};
  CountedNode() { ++Constructed; }
  ~CountedNode() { ++Destroyed; }
};

/// Over-aligned, and small enough that an arena of 64 stays off the
/// huge-page path.
struct alignas(64) AlignedNode {
  uint64_t Word;
};

/// Address of the null sentinel, where the arena begins.
template <typename NodeT> uintptr_t arenaBase(TmPool<NodeT> &Pool) {
  return reinterpret_cast<uintptr_t>(&Pool[1]) - sizeof(NodeT);
}
} // namespace

TEST(TmPoolTest, SequentialAllocationIsDense) {
  TmPool<Node> Pool(8);
  std::set<uint32_t> Seen;
  for (int I = 0; I < 8; ++I) {
    uint32_t Index = Pool.allocate();
    EXPECT_NE(Index, TmPool<Node>::Null);
    EXPECT_TRUE(Seen.insert(Index).second) << "duplicate index";
  }
  EXPECT_EQ(Pool.used(), 8u);
  EXPECT_EQ(Pool.capacity(), 8u);
}

TEST(TmPoolTest, ConcurrentAllocationsAreUnique) {
  constexpr unsigned Threads = 8, PerThread = 500;
  TmPool<Node> Pool(Threads * PerThread);
  std::vector<std::vector<uint32_t>> Got(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Got[T].push_back(Pool.allocate());
    });
  for (auto &W : Workers)
    W.join();

  std::set<uint32_t> All;
  for (const auto &V : Got)
    for (uint32_t Index : V)
      EXPECT_TRUE(All.insert(Index).second);
  EXPECT_EQ(All.size(), size_t{Threads} * PerThread);
}

TEST(TmPoolTest, LargeArenaStartsOnAHugePageBoundary) {
  TmPool<BTreeSizedNode> Pool(LargeCapacity);
  EXPECT_EQ(arenaBase(Pool) % HugePage, 0u);
}

TEST(TmPoolTest, EveryNodeOfALargeArenaReadsZero) {
  TmPool<BTreeSizedNode> Pool(LargeCapacity);
  for (uint32_t I = 1; I <= Pool.capacity(); ++I)
    for (uint64_t W : Pool[I].Words)
      ASSERT_EQ(W, 0u) << "node " << I;
}

TEST(TmPoolTest, EveryNodeIsDestroyedExactlyOnce) {
  for (uint32_t Capacity : {uint32_t{8}, LargeCapacity}) {
    CountedNode::Constructed = CountedNode::Destroyed = 0;
    {
      TmPool<CountedNode> Pool(Capacity);
      EXPECT_EQ(CountedNode::Constructed, int(Capacity) + 1);
      EXPECT_EQ(CountedNode::Destroyed, 0);
      for (uint32_t I = 0; I < Capacity; ++I)
        EXPECT_EQ(Pool[Pool.allocate()].Words[0], 0u);
    }
    EXPECT_EQ(CountedNode::Constructed, int(Capacity) + 1);
    EXPECT_EQ(CountedNode::Destroyed, int(Capacity) + 1);
  }
}

TEST(TmPoolTest, ConcurrentAllocationsOnALargeArenaAreUnique) {
  constexpr unsigned Threads = 4, PerThread = LargeCapacity / Threads;
  TmPool<BTreeSizedNode> Pool(LargeCapacity);
  std::vector<std::vector<uint32_t>> Got(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        uint32_t Index = Pool.allocate();
        Pool[Index].Words[0] = Index;
        Got[T].push_back(Index);
      }
    });
  for (auto &W : Workers)
    W.join();

  std::set<uint32_t> All;
  for (const auto &V : Got)
    for (uint32_t Index : V) {
      EXPECT_TRUE(All.insert(Index).second);
      EXPECT_EQ(Pool[Index].Words[0], Index);
    }
  EXPECT_EQ(All.size(), size_t{LargeCapacity});
  EXPECT_EQ(Pool.used(), LargeCapacity);
}

TEST(TmPoolTest, SmallArenaKeepsItsNodeAlignment) {
  TmPool<AlignedNode> Pool(64);
  EXPECT_EQ(arenaBase(Pool) % alignof(AlignedNode), 0u);
  for (uint32_t I = 0; I < 64; ++I) {
    uint32_t Index = Pool.allocate();
    EXPECT_EQ(Pool[Index].Word, 0u);
    Pool[Index].Word = Index;
  }
  for (uint32_t I = 1; I <= 64; ++I)
    EXPECT_EQ(Pool[I].Word, I);
  EXPECT_EQ(Pool.used(), 64u);
}

TEST(TmPoolTest, NodesAreStableAcrossAllocations) {
  TmPool<Node> Pool(64);
  uint32_t First = Pool.allocate();
  Pool[First].Payload = 42;
  for (int I = 0; I < 63; ++I)
    Pool.allocate();
  EXPECT_EQ(Pool[First].Payload, 42) << "no reallocation may move nodes";
}

TEST(TmPoolDeathTest, ExhaustionAbortsLoudly) {
  // Exhaustion must terminate with a diagnostic rather than corrupt the
  // heap (speculative readers may hold neighbouring indices).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TmPool<Node> Pool(2);
  Pool.allocate();
  Pool.allocate();
  EXPECT_DEATH(Pool.allocate(), "TmPool exhausted");
}

TEST(TmPoolTest, ListNodesFromSharedPoolStayIndependent) {
  // Two lists on one arena must not interfere.
  Tl2Stm Stm;
  TmList::Pool Pool(256);
  TmList A, B;
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 20; ++K) {
      A.insert(Tx, Pool, K, K);
      B.insert(Tx, Pool, K, K * 2);
    }
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 20; ++K) {
      EXPECT_EQ(A.find(Tx, Pool, K).value(), K);
      EXPECT_EQ(B.find(Tx, Pool, K).value(), K * 2);
    }
  });
}
