//===- tests/tl2_test.cpp - TL2 STM semantics tests ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "engine/Tl2.h"
#include "libtm/LibTm.h"

#include "stm/TVar.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace gstm;

TEST(LockTableTest, EncodeDecodeVersion) {
  for (uint64_t V : {uint64_t{0}, uint64_t{1}, uint64_t{123456789},
                     (uint64_t{1} << 62) - 1}) {
    StripeState S = LockTable::decode(LockTable::encodeVersion(V));
    EXPECT_FALSE(S.Locked);
    EXPECT_EQ(S.Version, V);
  }
}

TEST(LockTableTest, EncodeDecodeLocked) {
  TxThreadPair P = packPair(12, 7);
  StripeState S = LockTable::decode(LockTable::encodeLocked(P));
  EXPECT_TRUE(S.Locked);
  EXPECT_EQ(S.Owner, P);
}

TEST(LockTableTest, IndexStableAndInRange) {
  LockTable T(10);
  int X[16];
  for (int &V : X) {
    size_t I = T.indexFor(&V);
    EXPECT_LT(I, T.size());
    EXPECT_EQ(I, T.indexFor(&V));
  }
}

TEST(LockTableTest, WordsOfOneLineUseOneTableLine) {
  // The 8 words of a data line take the 8 stripes of one table line, so
  // a walk over cached data does not miss in the table on every word.
  for (unsigned Bits : {10u, 20u}) {
    LockTable T(Bits);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&T.stripeAt(0)) % 64, 0u);
    alignas(64) uint64_t Lines[4][8];
    for (auto &Line : Lines) {
      std::set<size_t> Indexes;
      for (uint64_t &W : Line) {
        Indexes.insert(T.indexFor(&W));
        EXPECT_EQ(T.indexFor(&W) >> 3, T.indexFor(&Line[0]) >> 3);
      }
      EXPECT_EQ(Indexes.size(), 8u);
    }
  }
}

TEST(CommitRingTest, RecordAndLookup) {
  CommitRing Ring(4);
  Ring.record(100, packPair(3, 1));
  TxThreadPair P = 0;
  ASSERT_TRUE(Ring.lookup(100, P));
  EXPECT_EQ(pairTx(P), 3);
  EXPECT_EQ(pairThread(P), 1);
}

TEST(CommitRingTest, OverwrittenEntryMisses) {
  CommitRing Ring(2); // 4 slots
  Ring.record(1, packPair(1, 1));
  Ring.record(5, packPair(2, 2)); // same slot as version 1
  TxThreadPair P = 0;
  EXPECT_FALSE(Ring.lookup(1, P));
  EXPECT_TRUE(Ring.lookup(5, P));
}

TEST(Tl2Test, AbortedWritesNeverVisible) {
  Tl2Stm Stm;
  TVar<uint64_t> X{1};
  Tl2Txn Txn(Stm, 0);
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    Tx.store(X, 99);
    if (++Attempts == 1)
      Tx.retryAbort();
  });
  EXPECT_EQ(Attempts, 2);
  EXPECT_EQ(X.loadDirect(), 99u);
  EXPECT_EQ(Stm.stats().aborts(), 1u);
}

TEST(Tl2Test, TypedVarsRoundTrip) {
  Tl2Stm Stm;
  TVar<double> D{1.5};
  TVar<int32_t> I{-7};
  TVar<float> F{2.25f};
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    Tx.store(D, Tx.load(D) * 2.0);
    Tx.store(I, Tx.load(I) - 1);
    Tx.store(F, Tx.load(F) + 0.5f);
  });
  EXPECT_DOUBLE_EQ(D.loadDirect(), 3.0);
  EXPECT_EQ(I.loadDirect(), -8);
  EXPECT_FLOAT_EQ(F.loadDirect(), 2.75f);
}

TEST(Tl2Test, WriteSetDedupesSameLocation) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t I = 1; I <= 100; ++I)
      Tx.store(X, I);
    EXPECT_EQ(Tx.state().WriteLog.size(), 1u);
  });
  EXPECT_EQ(X.loadDirect(), 100u);
}

TEST(Tl2Test, ClockAdvancesPerWriterCommit) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  uint64_t Before = Stm.clock().sample();
  for (int I = 0; I < 5; ++I)
    Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, Tx.load(X) + 1); });
  EXPECT_EQ(Stm.clock().sample(), Before + 5);
}

TEST(Tl2Test, BankTransferConservesTotal) {
  // Classic serializability check: random transfers keep the total.
  Tl2Stm Stm;
  constexpr unsigned NumAccounts = 32;
  constexpr unsigned Threads = 6;
  constexpr unsigned Transfers = 300;
  std::vector<std::unique_ptr<TVar<int64_t>>> Accounts;
  for (unsigned I = 0; I < NumAccounts; ++I)
    Accounts.push_back(std::make_unique<TVar<int64_t>>(1000));

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      SplitMix64 Rng(T + 1);
      for (unsigned I = 0; I < Transfers; ++I) {
        unsigned From = Rng.nextBounded(NumAccounts);
        unsigned To = Rng.nextBounded(NumAccounts);
        int64_t Amount = static_cast<int64_t>(Rng.nextBounded(50));
        Txn.run(0, [&](Tl2Txn &Tx) {
          Tx.store(*Accounts[From], Tx.load(*Accounts[From]) - Amount);
          Tx.store(*Accounts[To], Tx.load(*Accounts[To]) + Amount);
        });
      }
    });
  for (auto &W : Workers)
    W.join();

  int64_t Total = 0;
  for (auto &A : Accounts)
    Total += A->loadDirect();
  EXPECT_EQ(Total, int64_t{NumAccounts} * 1000);
}

TEST(Tl2Test, AdjacentWordsOfOneLineNeverConflict) {
  // Two committers publish into one lock-table line: their words have
  // distinct stripes, so neither ever aborts the other.
  struct alignas(64) SharedLine {
    TVar<uint64_t> A{0};
    TVar<uint64_t> B{0};
  } Line;
  ASSERT_EQ(reinterpret_cast<uintptr_t>(&Line.B.word()) / 64,
            reinterpret_cast<uintptr_t>(&Line.A.word()) / 64);
  Tl2Stm Stm;
  constexpr uint64_t Increments = 100000;
  std::vector<std::thread> Workers;
  for (TVar<uint64_t> *Var : {&Line.A, &Line.B})
    Workers.emplace_back([&, Var] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(Var == &Line.B));
      for (uint64_t I = 0; I < Increments; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(*Var, Tx.load(*Var) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Line.A.loadDirect(), Increments);
  EXPECT_EQ(Line.B.loadDirect(), Increments);
  EXPECT_EQ(Stm.stats().aborts(), 0u);
}

TEST(Tl2Test, AliasedLinesConflictOnlyAtTheSameWordOffset) {
  // On the default-sized table, two data lines that hash to one table
  // line share a stripe only at the same word offset: committers at
  // different offsets of the two lines never abort each other.
  struct alignas(64) DataLine {
    TVar<uint64_t> W[8];
  };
  static_assert(sizeof(DataLine) == 64);
  Tl2Stm Stm;
  LockTable &Table = Stm.lockTable();
  // 1024 lines against 2^13 table lines: ~64 aliased pairs expected.
  std::vector<DataLine> Lines(1024);
  std::map<size_t, DataLine *> ByTableLine;
  DataLine *A = nullptr, *B = nullptr;
  for (DataLine &L : Lines) {
    auto [It, Fresh] =
        ByTableLine.emplace(Table.indexFor(&L.W[0].word()) >> 3, &L);
    if (!Fresh) {
      A = It->second;
      B = &L;
      break;
    }
  }
  ASSERT_NE(B, nullptr) << "no two lines alias in the table";
  for (unsigned I = 0; I < 8; ++I)
    for (unsigned J = 0; J < 8; ++J)
      EXPECT_EQ(Table.indexFor(&A->W[I].word()) ==
                    Table.indexFor(&B->W[J].word()),
                I == J)
          << "word " << I << " vs word " << J;

  constexpr uint64_t Increments = 100000;
  TVar<uint64_t> *Vars[2] = {&A->W[0], &B->W[1]};
  std::vector<std::thread> Workers;
  for (ThreadId T = 0; T < 2; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, T);
      TVar<uint64_t> &Var = *Vars[T];
      for (uint64_t I = 0; I < Increments; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(Var, Tx.load(Var) + 1); });
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(A->W[0].loadDirect(), Increments);
  EXPECT_EQ(B->W[1].loadDirect(), Increments);
  EXPECT_EQ(Stm.stats().aborts(), 0u);
}

TEST(Tl2Test, SnapshotIsolationNeverSeesTornPairs) {
  // Writers keep X == Y; readers must never observe X != Y.
  Tl2Stm Stm;
  TVar<uint64_t> X{0}, Y{0};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Violations{0};

  std::thread Writer([&] {
    Tl2Txn Txn(Stm, 0);
    for (unsigned I = 1; I <= 400; ++I)
      Txn.run(0, [&](Tl2Txn &Tx) {
        Tx.store(X, I);
        Tx.store(Y, I);
      });
    Stop.store(true);
  });
  std::thread Reader([&] {
    Tl2Txn Txn(Stm, 1);
    while (!Stop.load()) {
      uint64_t A = 0, B = 0;
      Txn.run(1, [&](Tl2Txn &Tx) {
        A = Tx.load(X);
        B = Tx.load(Y);
      });
      if (A != B)
        Violations.fetch_add(1);
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(X.loadDirect(), 400u);
}

TEST(Tl2Test, AbortEventsNameTheirCommitter) {
  // Force a conflict and check that the victim's abort names the
  // committer.
  Tl2Stm Stm;
  TVar<uint64_t> X{0};

  struct Probe : TxEventObserver {
    std::atomic<uint64_t> KnownCause{0};
    std::atomic<uint64_t> TotalAborts{0};
    void onCommit(const CommitEvent &) override {}
    void onAbort(const AbortEvent &E) override {
      TotalAborts.fetch_add(1);
      if (E.Kind == AbortCauseKind::KnownCommitter)
        KnownCause.fetch_add(1);
    }
  } Obs;
  Stm.setObserver(&Obs);

  constexpr unsigned Threads = 8;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (unsigned I = 0; I < 300; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) {
          Tx.store(X, Tx.load(X) + 1);
        });
    });
  for (auto &W : Workers)
    W.join();

  EXPECT_EQ(X.loadDirect(), 8u * 300u);
  if (Obs.TotalAborts.load() > 0) {
    // Nearly all aborts should resolve their cause through the lock
    // owner or the commit ring.
    EXPECT_GT(Obs.KnownCause.load() * 10, Obs.TotalAborts.load() * 9)
        << "known causes: " << Obs.KnownCause.load() << " of "
        << Obs.TotalAborts.load();
  }
}

TEST(Tl2Test, LargeReadAndWriteSets) {
  Tl2Stm Stm;
  constexpr unsigned N = 512;
  std::vector<std::unique_ptr<TVar<uint64_t>>> Vars;
  for (unsigned I = 0; I < N; ++I)
    Vars.push_back(std::make_unique<TVar<uint64_t>>(I));

  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    uint64_t Sum = 0;
    for (auto &V : Vars)
      Sum += Tx.load(*V);
    for (auto &V : Vars)
      Tx.store(*V, Sum);
  });
  for (auto &V : Vars)
    EXPECT_EQ(V->loadDirect(), uint64_t{N} * (N - 1) / 2);
}

namespace {
/// Records the lock keys a commit acquires, in acquisition order.
struct LockKeyRecorder : TxAccessObserver {
  std::vector<uint64_t> Keys;
  void onTxBegin(ThreadId, TxId, uint64_t) override {}
  void onTxLoad(ThreadId, const void *, uint64_t, uint64_t, bool) override {}
  void onTxStore(ThreadId, const void *, uint64_t) override {}
  void onLockAcquire(ThreadId, uint64_t LockId) override {
    Keys.push_back(LockId);
  }
};

struct Pair {
  uint64_t A;
  uint64_t B;
};
} // namespace

TEST(Tl2ObjectOrecTest, OneCommitLocksAWordStripeAndAnObjectMeta) {
  // An object on the flat runtime is its own orec: a commit that writes a
  // word and an object it read takes the word's stripe, then the
  // object's tagged key, in one sorted acquisition; its validation finds
  // the object's pre-lock word by that key; and the release stamps the
  // Meta word at wv while no table stripe but the word's moves.
  Tl2Stm Stm;
  TVar<uint64_t> Word{1};
  TObj<Pair> Obj{Pair{2, 3}};
  LockTable &Table = Stm.lockTable();
  const uint64_t WordKey = Table.indexFor(&Word.word());
  LockKeyRecorder Rec;
  Stm.setAccessObserver(&Rec);
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    Pair P = Tx.read(Obj);
    Tx.store(Word, Tx.load(Word) + P.A);
    Tx.write(Obj, Pair{P.A + 1, P.B});
  });
  Stm.setAccessObserver(nullptr);

  const uint64_t ObjKey = LockTable::objectKey(&Obj.meta());
  EXPECT_EQ(Rec.Keys, (std::vector<uint64_t>{WordKey, ObjKey}));
  EXPECT_EQ(Table.indexOf(&Obj.meta()), ObjKey);
  EXPECT_EQ(&Table.stripeAt(ObjKey), &Obj.meta());
  EXPECT_EQ(Table.indexOf(&Table.stripeAt(WordKey)), WordKey);

  const uint64_t Wv = Stm.clock().sample();
  EXPECT_EQ(Wv, 1u);
  EXPECT_EQ(Obj.meta().load(), LockTable::encodeVersion(Wv));
  for (uint64_t I = 0; I < Table.size(); ++I)
    ASSERT_EQ(Table.stripeAt(I).load(),
              I == WordKey ? LockTable::encodeVersion(Wv) : 0u)
        << "stripe " << I;
  EXPECT_EQ(Word.loadDirect(), 3u);
  EXPECT_EQ(Obj.loadDirect().A, 3u);
}

TEST(Tl2ObjectOrecTest, SelfLockedObjectValidatesAgainstItsPreLockWord) {
  // A peer commits the object between this attempt's read of it and its
  // commit. The commit still locks the object (the Meta is free again),
  // so validation must judge the read by the pre-lock word it finds
  // under the object's tagged key: that word is newer than rv, the
  // attempt retries, and neither increment is lost.
  Tl2Stm Stm;
  TVar<uint64_t> Word{0};
  TObj<Pair> Obj{Pair{0, 0}};
  Tl2Txn Txn(Stm, 0);
  Tl2Txn Peer(Stm, 1);
  int Attempts = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    Pair P = Tx.read(Obj);
    if (++Attempts == 1)
      // stm-lint: allow(R5) deliberate commit injection from a second
      // descriptor; single-threaded, so the nesting cannot deadlock.
      Peer.run(1, [&](Tl2Txn &E) {
        Pair Q = E.read(Obj);
        E.write(Obj, Pair{Q.A + 1, Q.B});
      });
    Tx.store(Word, Tx.load(Word) + 1);
    Tx.write(Obj, Pair{P.A + 1, P.B});
  });
  EXPECT_EQ(Attempts, 2);
  EXPECT_EQ(Obj.loadDirect().A, 2u);
  EXPECT_EQ(Word.loadDirect(), 1u);
  EXPECT_FALSE(LockTable::decode(Obj.meta().load()).Locked);
}
