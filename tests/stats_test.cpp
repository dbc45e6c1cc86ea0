//===- tests/stats_test.cpp - Sharded telemetry tests ----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Covers the sharded stats subsystem (stm/StatsShard.h): exact aggregation
// across concurrent threads, the abort breakdown by cause and site, the
// retries-before-commit histogram, attempt-latency gating, and the JSON
// telemetry export/parse path — plus regression tests for the orec-eager
// opens undercount and the read-only CommitEvent flag.
//
//===----------------------------------------------------------------------===//

#include "stm/StatsShard.h"

#include "core/JsonExport.h"
#include "engine/OrecEager.h"
#include "engine/Tl2.h"
#include "stm/Contention.h"
#include "stm/TVar.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

using namespace gstm;

//===----------------------------------------------------------------------===//
// Shard / snapshot unit behaviour
//===----------------------------------------------------------------------===//

TEST(StatsShardTest, RecordersFeedTheRightCounters) {
  ShardedStats S;
  StatsShard &Shard = S.shard(3);
  Shard.recordCommit(/*PriorAborts=*/0, /*ReadOnly=*/false);
  Shard.recordCommit(/*PriorAborts=*/2, /*ReadOnly=*/true);
  Shard.recordAbort(AbortCauseKind::KnownCommitter, AbortSite::Read);
  Shard.recordAbort(AbortCauseKind::UnknownCommitter,
                    AbortSite::CommitValidate);
  Shard.recordAttempt(1500);
  Shard.recordCommitRingLookup(/*Hit=*/true);
  Shard.recordCommitRingLookup(/*Hit=*/false);
  Shard.recordCrossShardCommit();
  Shard.recordCrossShardAbort();
  Shard.recordPrepareRetry();
  Shard.recordPrepareRetry();

  StatsSnapshot Snap = S.snapshotShard(3);
  EXPECT_EQ(Snap.Commits, 2u);
  EXPECT_EQ(Snap.ReadOnlyCommits, 1u);
  EXPECT_EQ(Snap.Aborts, 2u);
  EXPECT_EQ(Snap.AbortsByCause[size_t(AbortCauseKind::KnownCommitter)], 1u);
  EXPECT_EQ(Snap.AbortsByCause[size_t(AbortCauseKind::UnknownCommitter)], 1u);
  EXPECT_EQ(Snap.AbortsBySite[size_t(AbortSite::Read)], 1u);
  EXPECT_EQ(Snap.AbortsBySite[size_t(AbortSite::CommitValidate)], 1u);
  EXPECT_EQ(Snap.RetryHistogram[0], 1u);
  EXPECT_EQ(Snap.RetryHistogram[2], 1u);
  EXPECT_EQ(Snap.Attempts, 1u);
  EXPECT_EQ(Snap.AttemptNanos, 1500u);
  EXPECT_EQ(Snap.CommitRingLookups, 2u);
  EXPECT_EQ(Snap.CommitRingMisses, 1u);
  EXPECT_DOUBLE_EQ(Snap.commitRingMissRatio(), 0.5);
  EXPECT_EQ(Snap.CrossShardCommits, 1u);
  EXPECT_EQ(Snap.CrossShardAborts, 1u);
  EXPECT_EQ(Snap.PrepareRetries, 2u);
  EXPECT_TRUE(Snap.consistent());

  // Other shards are untouched.
  EXPECT_EQ(S.snapshotShard(4).Commits, 0u);
}

TEST(StatsShardTest, RetryHistogramLastBucketAbsorbsTail) {
  ShardedStats S;
  S.shard(0).recordCommit(RetryHistogramBuckets - 1, false);
  S.shard(0).recordCommit(100, false);
  StatsSnapshot Snap = S.aggregate();
  EXPECT_EQ(Snap.RetryHistogram[RetryHistogramBuckets - 1], 2u);
  EXPECT_EQ(Snap.retryTotal(), Snap.Commits);
}

TEST(StatsShardTest, SnapshotMergeSumsEveryField) {
  StatsSnapshot A, B;
  A.Commits = 3;
  A.Aborts = 1;
  A.AbortsByCause[0] = 1;
  A.AbortsBySite[1] = 1;
  A.RetryHistogram[0] = 3;
  A.Attempts = 4;
  A.AttemptNanos = 400;
  A.CommitRingLookups = 2;
  A.CommitRingMisses = 1;
  A.CrossShardCommits = 1;
  A.PrepareRetries = 5;
  B.Commits = 2;
  B.ReadOnlyCommits = 2;
  B.Aborts = 2;
  B.AbortsByCause[0] = 2;
  B.AbortsBySite[1] = 2;
  B.RetryHistogram[1] = 2;
  B.Attempts = 4;
  B.AttemptNanos = 200;
  B.CommitRingLookups = 3;
  B.CommitRingMisses = 3;
  B.CrossShardCommits = 1;
  B.CrossShardAborts = 2;
  B.PrepareRetries = 1;

  A.merge(B);
  EXPECT_EQ(A.Commits, 5u);
  EXPECT_EQ(A.ReadOnlyCommits, 2u);
  EXPECT_EQ(A.Aborts, 3u);
  EXPECT_EQ(A.AbortsByCause[0], 3u);
  EXPECT_EQ(A.AbortsBySite[1], 3u);
  EXPECT_EQ(A.RetryHistogram[0], 3u);
  EXPECT_EQ(A.RetryHistogram[1], 2u);
  EXPECT_EQ(A.Attempts, 8u);
  EXPECT_EQ(A.AttemptNanos, 600u);
  EXPECT_EQ(A.CommitRingLookups, 5u);
  EXPECT_EQ(A.CommitRingMisses, 4u);
  EXPECT_EQ(A.CrossShardCommits, 2u);
  EXPECT_EQ(A.CrossShardAborts, 2u);
  EXPECT_EQ(A.PrepareRetries, 6u);
  EXPECT_TRUE(A.consistent());
  EXPECT_DOUBLE_EQ(A.meanAttemptNanos(), 75.0);
}

TEST(StatsShardTest, NameTablesCoverEveryEnumerator) {
  EXPECT_STREQ(abortCauseName(AbortCauseKind::KnownCommitter),
               "known_committer");
  EXPECT_STREQ(abortCauseName(AbortCauseKind::UnknownCommitter),
               "unknown_committer");
  EXPECT_STREQ(abortCauseName(AbortCauseKind::Explicit), "explicit");
  EXPECT_STREQ(abortSiteName(AbortSite::Read), "read");
  EXPECT_STREQ(abortSiteName(AbortSite::LockAcquire), "lock_acquire");
  EXPECT_STREQ(abortSiteName(AbortSite::CommitValidate), "commit_validate");
  EXPECT_STREQ(abortSiteName(AbortSite::Explicit), "explicit");
}

//===----------------------------------------------------------------------===//
// Concurrent aggregation exactness
//===----------------------------------------------------------------------===//

TEST(StatsShardTest, ConcurrentThreadsSumExactly) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 500;

  Tl2Stm Stm;
  TVar<uint64_t> Counter{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      for (uint64_t I = 0; I < PerThread; ++I)
        Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(Counter, Tx.load(Counter) + 1); });
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Counter.loadDirect(), uint64_t{Threads} * PerThread);

  // Totals are exact after quiesce even though every increment was a
  // relaxed RMW on a different shard.
  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, uint64_t{Threads} * PerThread);
  EXPECT_EQ(Stm.stats().commits(), Agg.Commits);
  EXPECT_EQ(Stm.stats().aborts(), Agg.Aborts);
  EXPECT_TRUE(Agg.consistent())
      << "cause/site/histogram breakdowns must sum to the totals";

  // Thread T mapped to shard T; per-shard commits are the per-thread ones.
  StatsSnapshot Manual;
  for (unsigned T = 0; T < Threads; ++T) {
    StatsSnapshot Shard = Stm.stats().snapshotShard(T);
    EXPECT_EQ(Shard.Commits, PerThread);
    Manual.merge(Shard);
  }
  EXPECT_EQ(Manual.Commits, Agg.Commits);
  EXPECT_EQ(Manual.Aborts, Agg.Aborts);
}

TEST(StatsShardTest, ResetZeroesEverything) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, 1); });
  ASSERT_EQ(Stm.stats().commits(), 1u);
  Stm.stats().reset();
  StatsSnapshot Agg = Stm.stats().aggregate();
  EXPECT_EQ(Agg.Commits, 0u);
  EXPECT_EQ(Agg.Aborts, 0u);
  EXPECT_EQ(Agg.Attempts, 0u);
  EXPECT_EQ(Agg.retryTotal(), 0u);
}

//===----------------------------------------------------------------------===//
// Abort cause / site attribution
//===----------------------------------------------------------------------===//

TEST(StatsAttributionTest, ReadTimeAbortTaggedReadSiteKnownCommitter) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Victim(Stm, 0);
  Tl2Txn Enemy(Stm, 1);

  bool Injected = false;
  Victim.run(7, [&](Tl2Txn &Tx) {
    if (!Injected) {
      Injected = true;
      // A commit lands between the victim's rv sample and its read of X,
      // so the read sees a too-new version and must abort at read time.
      // stm-lint: allow(R5) deliberate commit injection from a second
      // descriptor; single-threaded, so the nesting cannot deadlock.
      Enemy.run(9, [&](Tl2Txn &E) { E.store(X, E.load(X) + 1); });
    }
    (void)Tx.load(X);
  });

  StatsSnapshot Victim0 = Stm.stats().snapshotShard(0);
  EXPECT_EQ(Victim0.Aborts, 1u);
  EXPECT_EQ(Victim0.AbortsBySite[size_t(AbortSite::Read)], 1u);
  // The enemy registered its commit version in the ring, so the abort is
  // attributed, not anonymous.
  EXPECT_EQ(Victim0.AbortsByCause[size_t(AbortCauseKind::KnownCommitter)],
            1u);
  // The attribution probe itself is accounted: one ring lookup, no miss.
  EXPECT_EQ(Victim0.CommitRingLookups, 1u);
  EXPECT_EQ(Victim0.CommitRingMisses, 0u);
  EXPECT_TRUE(Victim0.consistent());
  // The retried commit recorded one prior abort.
  EXPECT_EQ(Victim0.RetryHistogram[1], 1u);
}

TEST(StatsAttributionTest, RingMissCountedWhenAttributionDecays) {
  // An undersized ring silently turns KnownCommitter attribution into
  // UnknownCommitter once the guilty version has been overwritten; the
  // lookup/miss counters are the visible trace of that decay. 1 ring bit
  // = 2 slots, so two further commits deterministically evict any entry.
  Tl2Config Cfg;
  Cfg.CommitRingBits = 1;
  Tl2Stm Stm(Cfg);
  TVar<uint64_t> X{0};
  TVar<uint64_t> Noise1{0};
  TVar<uint64_t> Noise2{0};
  TVar<uint64_t> Y{0};
  Tl2Txn Victim(Stm, 0);
  Tl2Txn Enemy(Stm, 1);

  bool Injected = false;
  Victim.run(7, [&](Tl2Txn &Tx) {
    uint64_t Seen = Tx.load(X);
    if (!Injected) {
      Injected = true;
      // The first commit invalidates the victim's logged read of X with
      // version V; the next two advance the clock to V+1 and V+2, and
      // V+2 lands in V's ring slot (same parity), evicting it.
      // stm-lint: allow(R5) deliberate commit injection from a second
      // descriptor; single-threaded, so the nesting cannot deadlock.
      Enemy.run(9, [&](Tl2Txn &E) { E.store(X, E.load(X) + 1); });
      // stm-lint: allow(R5) same deliberate injection: clock-advance.
      Enemy.run(9, [&](Tl2Txn &E) { E.store(Noise1, 1); });
      // stm-lint: allow(R5) same deliberate injection: slot eviction.
      Enemy.run(9, [&](Tl2Txn &E) { E.store(Noise2, 1); });
    }
    Tx.store(Y, Seen + 1);
  });

  StatsSnapshot Victim0 = Stm.stats().snapshotShard(0);
  EXPECT_EQ(Victim0.Aborts, 1u);
  EXPECT_EQ(Victim0.AbortsBySite[size_t(AbortSite::CommitValidate)], 1u);
  // Version V is gone from the ring: attribution degraded to anonymous,
  // and the counters say so.
  EXPECT_EQ(Victim0.AbortsByCause[size_t(AbortCauseKind::UnknownCommitter)],
            1u);
  EXPECT_EQ(Victim0.CommitRingLookups, 1u);
  EXPECT_EQ(Victim0.CommitRingMisses, 1u);
  EXPECT_DOUBLE_EQ(Victim0.commitRingMissRatio(), 1.0);
  EXPECT_TRUE(Victim0.consistent());
}

TEST(StatsAttributionTest, ValidationAbortTaggedCommitValidateSite) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  TVar<uint64_t> Y{0};
  Tl2Txn Victim(Stm, 0);
  Tl2Txn Enemy(Stm, 1);

  bool Injected = false;
  Victim.run(7, [&](Tl2Txn &Tx) {
    uint64_t Seen = Tx.load(X);
    if (!Injected) {
      Injected = true;
      // Invalidate the logged read of X after it happened but before the
      // victim (a writer, so it validates) commits.
      // stm-lint: allow(R5) deliberate commit injection from a second
      // descriptor; single-threaded, so the nesting cannot deadlock.
      Enemy.run(9, [&](Tl2Txn &E) { E.store(X, E.load(X) + 1); });
    }
    Tx.store(Y, Seen + 1);
  });

  StatsSnapshot Victim0 = Stm.stats().snapshotShard(0);
  EXPECT_EQ(Victim0.Aborts, 1u);
  EXPECT_EQ(Victim0.AbortsBySite[size_t(AbortSite::CommitValidate)], 1u);
  EXPECT_EQ(Victim0.AbortsByCause[size_t(AbortCauseKind::KnownCommitter)],
            1u);
  EXPECT_TRUE(Victim0.consistent());
}

TEST(StatsAttributionTest, LockedStripeAbortTaggedLockAcquireSite) {
  Tl2Stm Stm;
  TVar<uint64_t> Z{0};

  // Hold Z's stripe lock as a foreign transaction so the victim's commit
  // fails at lock acquisition (deterministically, without racing threads).
  std::atomic<uint64_t> &Stripe = Stm.lockTable().stripeFor(&Z.word());
  uint64_t Unlocked = Stripe.load();
  TxThreadPair Foreign = packPair(/*Tx=*/42, /*Thread=*/5);

  Tl2Txn Victim(Stm, 0);
  bool First = true;
  Victim.run(7, [&](Tl2Txn &Tx) {
    if (First) {
      First = false;
      // stm-lint: allow(R1) the test poisons the stripe with a foreign
      // owner on purpose to force a deterministic lock-acquire abort.
      Stripe.store(LockTable::encodeLocked(Foreign));
    } else {
      // stm-lint: allow(R1) restoring the pre-test stripe word so the
      // retry can acquire the lock.
      Stripe.store(Unlocked); // release for the retry
    }
    Tx.store(Z, 1);
  });

  StatsSnapshot Victim0 = Stm.stats().snapshotShard(0);
  EXPECT_EQ(Victim0.Aborts, 1u);
  EXPECT_EQ(Victim0.AbortsBySite[size_t(AbortSite::LockAcquire)], 1u);
  // The lock word names its owner: cause is the known committer.
  EXPECT_EQ(Victim0.AbortsByCause[size_t(AbortCauseKind::KnownCommitter)],
            1u);
  EXPECT_TRUE(Victim0.consistent());
  EXPECT_EQ(Z.loadDirect(), 1u);
}

TEST(StatsAttributionTest, RetryAbortTaggedExplicit) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    (void)Tx.load(X);
    if (Attempt++ == 0)
      Tx.retryAbort();
  });

  StatsSnapshot Snap = Stm.stats().aggregate();
  EXPECT_EQ(Snap.Aborts, 1u);
  EXPECT_EQ(Snap.AbortsByCause[size_t(AbortCauseKind::Explicit)], 1u);
  EXPECT_EQ(Snap.AbortsBySite[size_t(AbortSite::Explicit)], 1u);
  EXPECT_TRUE(Snap.consistent());
}

//===----------------------------------------------------------------------===//
// Read-only commit accounting
//===----------------------------------------------------------------------===//

TEST(StatsShardTest, ReadOnlyCommitsCountedSeparately) {
  Tl2Stm Stm;
  TVar<uint64_t> X{5};
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) { (void)Tx.load(X); });
  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, Tx.load(X) + 1); });

  StatsSnapshot Snap = Stm.stats().aggregate();
  EXPECT_EQ(Snap.Commits, 2u);
  EXPECT_EQ(Snap.ReadOnlyCommits, 1u);
}

//===----------------------------------------------------------------------===//
// Regression: eager-engine opens undercount (contention-manager input)
//===----------------------------------------------------------------------===//

namespace {

/// Records the Opens values the STM reports, to pin down what contention
/// managers actually see.
struct RecordingCm : ContentionManager {
  std::string name() const override { return "recording"; }
  uint64_t onAbort(ThreadId, TxThreadPair, bool, uint32_t,
                   uint64_t Opens) override {
    AbortOpens.push_back(Opens);
    return 0;
  }
  void onCommit(ThreadId, uint64_t Opens) override {
    CommitOpens.push_back(Opens);
  }
  std::vector<uint64_t> AbortOpens;
  std::vector<uint64_t> CommitOpens;
};

} // namespace

TEST(EagerOpensRegressionTest, AbortAndCommitCountEagerWrites) {
  OrecEagerStm Stm;
  RecordingCm Cm;
  Stm.setContentionManager(&Cm);

  TVar<uint64_t> R{1};
  TVar<uint64_t> W1{0};
  TVar<uint64_t> W2{0};

  OrecEagerTxn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](OrecEagerTxn &Tx) {
    (void)Tx.load(R);   // 1 logged read
    Tx.store(W1, 10);   // eager writes land in the undo log,
    Tx.store(W2, 20);   // not the policy's read set
    if (Attempt++ == 0)
      Tx.retryAbort();
  });

  // 1 read + 2 eager writes. Counting the read set alone would report 1
  // and make Karma-style managers see eager writers as having invested
  // no write work.
  ASSERT_EQ(Cm.AbortOpens.size(), 1u);
  EXPECT_EQ(Cm.AbortOpens[0], 3u);
  ASSERT_EQ(Cm.CommitOpens.size(), 1u);
  EXPECT_EQ(Cm.CommitOpens[0], 3u);
  EXPECT_EQ(W1.loadDirect(), 10u);
  EXPECT_EQ(W2.loadDirect(), 20u);
}

TEST(EagerOpensRegressionTest, KarmaAccruesEagerWriteWork) {
  OrecEagerStm Stm;
  KarmaManager Karma;
  Stm.setContentionManager(&Karma);

  TVar<uint64_t> W1{0};
  TVar<uint64_t> W2{0};
  OrecEagerTxn Txn(Stm, 0);
  int Attempt = 0;
  uint64_t KarmaAfterAbort = 0;
  Txn.run(0, [&](OrecEagerTxn &Tx) {
    if (Attempt > 0)
      // Karma resets on commit, so sample it on the retry, while the
      // aborted attempt's investment is still banked.
      // stm-lint: allow(R5) read-only observation of the contention
      // manager's karma counter; the test asserts on it, nothing more.
      KarmaAfterAbort = Karma.karmaOf(0);
    Tx.store(W1, 1);
    Tx.store(W2, 2);
    if (Attempt++ == 0)
      Tx.retryAbort();
  });
  // Karma accumulates the aborted attempt's opens; with the undo log
  // ignored it would stay 0 for a pure eager writer.
  EXPECT_GE(KarmaAfterAbort, 2u);
}

//===----------------------------------------------------------------------===//
// Attempt latency gating
//===----------------------------------------------------------------------===//

TEST(AttemptLatencyTest, DisabledByDefault) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, 1); });
  EXPECT_EQ(Stm.stats().aggregate().Attempts, 0u);
}

TEST(AttemptLatencyTest, CountsEveryAttemptWhenEnabled) {
  Tl2Config Cfg;
  Cfg.TrackAttemptLatency = true;
  Tl2Stm Stm(Cfg);
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);

  int Attempt = 0;
  for (int I = 0; I < 3; ++I)
    Txn.run(0, [&](Tl2Txn &Tx) {
      Tx.store(X, Tx.load(X) + 1);
      // stm-lint: allow(R2) the sleep inflates attempt latency so the
      // TrackAttemptLatency histogram has something to measure.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (I == 0 && Attempt++ == 0)
        Tx.retryAbort(); // aborted attempts count too
    });

  StatsSnapshot Snap = Stm.stats().aggregate();
  EXPECT_EQ(Snap.Commits, 3u);
  EXPECT_EQ(Snap.Aborts, 1u);
  EXPECT_EQ(Snap.Attempts, Snap.Commits + Snap.Aborts);
  // 4 attempts x 200us sleep; demand at least half of it to tolerate a
  // coarse clock.
  EXPECT_GE(Snap.AttemptNanos, 400000u);
  EXPECT_GT(Snap.meanAttemptNanos(), 0.0);
}

//===----------------------------------------------------------------------===//
// JSON writer / parser and telemetry export
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterParserRoundtrip) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value("run \"7\"\n");
  W.key("count").value(uint64_t{18446744073709551615ull});
  W.key("small").value(uint64_t{42});
  W.key("ratio").value(0.25);
  W.key("ok").value(true);
  W.key("missing").null();
  W.key("items").beginArray().value(uint64_t{1}).value(uint64_t{2}).endArray();
  W.key("nested").beginObject().key("x").value(uint64_t{7}).endObject();
  W.endObject();

  std::optional<JsonValue> Doc = parseJson(W.str());
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->find("name")->Str, "run \"7\"\n");
  EXPECT_EQ(Doc->find("small")->asU64(), 42u);
  EXPECT_DOUBLE_EQ(Doc->find("ratio")->asDouble(), 0.25);
  EXPECT_TRUE(Doc->find("ok")->B);
  EXPECT_EQ(Doc->find("missing")->K, JsonValue::Kind::Null);
  ASSERT_TRUE(Doc->find("items")->isArray());
  EXPECT_EQ(Doc->find("items")->Items.size(), 2u);
  EXPECT_EQ(Doc->find("nested")->find("x")->asU64(), 7u);
  EXPECT_EQ(Doc->find("absent"), nullptr);
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  JsonWriter W;
  W.beginArray();
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.value(std::numeric_limits<double>::infinity());
  W.endArray();
  EXPECT_EQ(W.str(), "[null,null]");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("{\"a\":}").has_value());
  EXPECT_FALSE(parseJson("[1,2,]").has_value());
  EXPECT_FALSE(parseJson("\"unterminated").has_value());
  EXPECT_FALSE(parseJson("{} trailing").has_value());
  EXPECT_TRUE(parseJson(" {\"a\": [1, 2.5, null]} ").has_value());
}

TEST(JsonTest, TelemetryExportRoundtrip) {
  Tl2Stm Stm;
  TVar<uint64_t> X{0};
  Tl2Txn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    (void)Tx.load(X);
    if (Attempt++ == 0)
      Tx.retryAbort();
  });
  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, 1); });

  std::vector<StatsSnapshot> PerThread{Stm.stats().snapshotShard(0)};
  JsonWriter W;
  writeTelemetryJson(W, Stm.stats().aggregate(), PerThread);

  std::optional<JsonValue> Doc = parseJson(W.str());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("commits")->asU64(), 2u);
  EXPECT_EQ(Doc->find("read_only_commits")->asU64(), 1u);
  EXPECT_EQ(Doc->find("aborts")->asU64(), 1u);
  EXPECT_EQ(Doc->find("abort_causes")->find("explicit")->asU64(), 1u);
  EXPECT_EQ(Doc->find("abort_sites")->find("explicit")->asU64(), 1u);

  const JsonValue *Hist = Doc->find("retry_histogram");
  ASSERT_NE(Hist, nullptr);
  ASSERT_EQ(Hist->Items.size(), RetryHistogramBuckets);
  uint64_t HistTotal = 0;
  for (const JsonValue &B : Hist->Items)
    HistTotal += B.asU64();
  EXPECT_EQ(HistTotal, 2u) << "histogram must sum to commits";

  const JsonValue *Threads = Doc->find("per_thread");
  ASSERT_NE(Threads, nullptr);
  ASSERT_EQ(Threads->Items.size(), 1u);
  EXPECT_EQ(Threads->Items[0].find("thread")->asU64(), 0u);
  EXPECT_EQ(Threads->Items[0].find("commits")->asU64(), 2u);
}

TEST(JsonTest, RingCountersSurviveExportParseRoundtrip) {
  StatsSnapshot S;
  S.Commits = 1;
  S.RetryHistogram[0] = 1;
  S.CommitRingLookups = 7;
  S.CommitRingMisses = 5;

  JsonWriter W;
  writeTelemetryJson(W, S, {});
  std::optional<JsonValue> Doc = parseJson(W.str());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("commit_ring_lookups")->asU64(), 7u);
  EXPECT_EQ(Doc->find("commit_ring_misses")->asU64(), 5u);

  std::optional<StatsSnapshot> Back = snapshotFromJson(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->CommitRingLookups, 7u);
  EXPECT_EQ(Back->CommitRingMisses, 5u);
  EXPECT_DOUBLE_EQ(Back->commitRingMissRatio(), 5.0 / 7.0);
}

TEST(JsonTest, ShardCountersSurviveExportParseRoundtrip) {
  StatsSnapshot S;
  S.Commits = 4;
  S.Aborts = 3;
  S.AbortsByCause[size_t(AbortCauseKind::Explicit)] = 3;
  S.AbortsBySite[size_t(AbortSite::Explicit)] = 3;
  S.RetryHistogram[0] = 4;
  S.CrossShardCommits = 2;
  S.CrossShardAborts = 1;
  S.PrepareRetries = 9;
  ASSERT_TRUE(S.consistent());

  JsonWriter W;
  writeTelemetryJson(W, S, {});
  std::optional<JsonValue> Doc = parseJson(W.str());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("cross_shard_commits")->asU64(), 2u);
  EXPECT_EQ(Doc->find("cross_shard_aborts")->asU64(), 1u);
  EXPECT_EQ(Doc->find("prepare_retries")->asU64(), 9u);

  std::optional<StatsSnapshot> Back = snapshotFromJson(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->CrossShardCommits, 2u);
  EXPECT_EQ(Back->CrossShardAborts, 1u);
  EXPECT_EQ(Back->PrepareRetries, 9u);
  EXPECT_TRUE(Back->consistent());

  // A cross-shard total exceeding the commits counter is a torn export:
  // consistent() must reject it.
  Back->CrossShardCommits = Back->Commits + 1;
  EXPECT_FALSE(Back->consistent());
}
