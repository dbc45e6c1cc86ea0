//===- shard/Sharded.cpp - Sharded TL2 tier implementation ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "shard/Sharded.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <thread>

using namespace gstm;

const char *gstm::shardHashName(ShardHashKind Kind) {
  return Kind == ShardHashKind::Mix ? "mix" : "fib";
}

bool gstm::shardHashFromName(const std::string &Name, ShardHashKind &Out) {
  if (Name == "mix") {
    Out = ShardHashKind::Mix;
    return true;
  }
  if (Name == "fib") {
    Out = ShardHashKind::Fibonacci;
    return true;
  }
  return false;
}

std::string gstm::shardConfigCanonical(const ShardConfig &Cfg) {
  std::string S = "shards=" + std::to_string(Cfg.ShardCount) + ";";
  S += "shard-hash=";
  S += shardHashName(Cfg.ShardHash);
  S += ";steer=";
  S += Cfg.Steering ? '1' : '0';
  S += ';';
  return S;
}

void ShardPlacement::addRange(const void *Begin, const void *End,
                              unsigned Shard) {
  assert(Begin < End && "empty placement range");
  Ranges.push_back(Range{reinterpret_cast<uintptr_t>(Begin),
                         reinterpret_cast<uintptr_t>(End), Shard});
  Finalized = false;
}

void ShardPlacement::finalize() {
  std::sort(Ranges.begin(), Ranges.end(),
            [](const Range &A, const Range &B) { return A.Begin < B.Begin; });
  for (size_t I = 1; I < Ranges.size(); ++I)
    assert(Ranges[I - 1].End <= Ranges[I].Begin &&
           "overlapping placement ranges");
  Finalized = true;
}

int ShardPlacement::lookup(const void *Addr) const {
  assert(Finalized && "lookup on an unfinalized placement");
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  auto It = std::upper_bound(
      Ranges.begin(), Ranges.end(), A,
      [](uintptr_t Key, const Range &R) { return Key < R.Begin; });
  if (It == Ranges.begin())
    return -1;
  --It;
  return A < It->End ? static_cast<int>(It->Shard) : -1;
}

ShardedStm::ShardedStm(const ShardConfig &Config) : Cfg(Config) {
  assert(Cfg.ShardCount >= 1 && Cfg.ShardCount <= MaxShardCount &&
         (Cfg.ShardCount & (Cfg.ShardCount - 1)) == 0 &&
         "shard count must be a power of two in [1, 64]");
  Shards.reserve(Cfg.ShardCount);
  for (unsigned I = 0; I < Cfg.ShardCount; ++I)
    Shards.push_back(std::make_unique<ShardContext>(Cfg));
}

size_t ShardedStm::shardFor(const void *Addr) const {
  if (const ShardPlacement *P = Placement.load(std::memory_order_acquire)) {
    int Explicit = P->lookup(Addr);
    if (Explicit >= 0)
      return static_cast<size_t>(Explicit);
  }
  uint64_t Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
  if (Cfg.ShardHash == ShardHashKind::Mix) {
    // Same avalanche finalizer as LockTable's Mix hash, but the shard
    // index comes from the top bits while stripe indexes take the low
    // bits — the two mappings stay statistically independent.
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdULL;
    Key ^= Key >> 29;
    Key *= 0xc4ceb9fe1a85ec53ULL;
    Key ^= Key >> 32;
    return static_cast<size_t>(Key >> 58) & (Cfg.ShardCount - 1);
  }
  return static_cast<size_t>(Key * 0x9e3779b97f4a7c15ULL >> 58) &
         (Cfg.ShardCount - 1);
}

StatsSnapshot ShardedStatsView::aggregate() const {
  StatsSnapshot Total;
  for (unsigned I = 0; I < S->shardCount(); ++I)
    Total.merge(S->shardStats(I).aggregate());
  return Total;
}

uint64_t ShardedStatsView::commits() const { return aggregate().Commits; }

uint64_t ShardedStatsView::aborts() const { return aggregate().Aborts; }

void ShardedStatsView::reset() {
  for (unsigned I = 0; I < S->shardCount(); ++I)
    S->shardStats(I).reset();
}

ShardedTxn::ShardedTxn(ShardedStm &Stm, ThreadId Thread)
    : TxnExecutor<ShardedTxn>(Thread), S(Stm), Thread(Thread),
      ResidentShard(static_cast<size_t>(Thread) % Stm.shardCount()),
      ThreadShard(&Stm.shardStats(ResidentShard).shard(Thread)) {}

StatsShard &ShardedTxn::outcomeStats() const {
  uint64_t Mask = WriteShardMask ? WriteShardMask : ReadShardMask;
  size_t Shard =
      Mask ? static_cast<size_t>(std::countr_zero(Mask)) : ResidentShard;
  return S.shardStats(Shard).shard(Thread);
}

void ShardedTxn::begin(TxId Tx) {
  CurrentTx = Tx;
  // rv source: the resident shard's applied clock by default (no
  // globally shared line on the begin path of a shard-partitioned
  // workload), the global clock once a version abort proved the applied
  // snapshot lags the data this descriptor actually reads. Both are
  // sound; see the file comment in Sharded.h for the happens-before
  // argument covering the lagging sample.
  Rv = UseGlobalRv ? S.clock().sample()
                   : S.appliedClockOf(ResidentShard).sample();
  ReadSet.clear();
  WriteLog.clear();
  WriteIndex.clear();
  WriteFilter = 0;
  StripeScratch.clear();
  Acquired.clear();
  ReadShardMask = 0;
  WriteShardMask = 0;
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxBegin(Thread, Tx, Rv);
}

bool ShardedTxn::lookupWriteSet(const std::atomic<uint64_t> *Addr,
                                uint64_t &Value) {
  if ((WriteFilter & filterSignature(Addr)) == 0)
    return false;
  const uint32_t *Pos = WriteIndex.find(Addr);
  if (!Pos)
    return false;
  Value = WriteLog[*Pos].Value;
  return true;
}

uint64_t ShardedTxn::loadWord(const std::atomic<uint64_t> &Word) {
  maybePreempt();
  // Read-after-write: serve buffered values from the write set.
  uint64_t Buffered;
  if (lookupWriteSet(&Word, Buffered)) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, &Word, Buffered, /*Version=*/0,
                  /*Buffered=*/true);
    return Buffered;
  }

  size_t Shard = S.shardFor(&Word);
  ReadShardMask |= uint64_t{1} << Shard;
  std::atomic<uint64_t> &Stripe = S.lockTableOf(Shard).stripeFor(&Word);
  uint64_t Pre = Stripe.load(std::memory_order_acquire);
  StripeState PreState = LockTable::decode(Pre);
  // The tier is lazy-only, so a locked stripe is always someone else's
  // in-flight commit: this descriptor only holds stripes inside
  // commitOrThrow, after its body finished loading.
  if (PreState.Locked)
    abortOnOwner(PreState.Owner, AbortSite::Read);

  uint64_t Value = Word.load(std::memory_order_acquire);

  uint64_t Post = Stripe.load(std::memory_order_acquire);
  if (Post != Pre) {
    StripeState PostState = LockTable::decode(Post);
    if (PostState.Locked)
      abortOnOwner(PostState.Owner, AbortSite::Read);
    abortOnVersion(PostState.Version, Shard, AbortSite::Read);
  }
  if (PreState.Version > Rv)
    abortOnVersion(PreState.Version, Shard, AbortSite::Read);

  ReadSet.push_back(ReadEntry{&Stripe, static_cast<uint32_t>(Shard)});
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxLoad(Thread, &Word, Value, PreState.Version,
                /*Buffered=*/false);
  return Value;
}

void ShardedTxn::storeWord(std::atomic<uint64_t> &Word, uint64_t Value) {
  maybePreempt();
  if (TxAccessObserver *A = S.accessObserver())
    A->onTxStore(Thread, &Word, Value);
  uint64_t Sig = filterSignature(&Word);
  if ((WriteFilter & Sig) != 0) {
    if (const uint32_t *Pos = WriteIndex.find(&Word)) {
      WriteLog[*Pos].Value = Value;
      return;
    }
  }
  WriteFilter |= Sig;
  WriteIndex.insert(&Word, static_cast<uint32_t>(WriteLog.size()));
  WriteLog.push_back(WriteEntry{&Word, Value});
}

void ShardedTxn::commitOrThrow(uint32_t PriorAborts) {
  TxThreadPair Self = packPair(CurrentTx, Thread);

  // Read-only transactions: every read was validated against rv when it
  // happened, so the snapshot is consistent and no locks are needed —
  // even when the read set spans shards, because a reader never
  // publishes and therefore never needs the coordinated protocol.
  if (WriteLog.empty()) {
    outcomeStats().recordCommit(PriorAborts, /*ReadOnly=*/true);
    if ((ReadShardMask & ~(uint64_t{1} << ResidentShard)) == 0)
      UseGlobalRv = false;
    if (TxEventObserver *Obs = S.observer())
      Obs->onCommit(CommitEvent{Thread, CurrentTx, /*Version=*/0,
                                PriorAborts, /*ReadOnly=*/true});
    return;
  }

  // Classification: fold the write set into combined (shard, stripe)
  // keys, sorted and deduplicated. Sorting the combined keys yields the
  // global acquisition order — shards ascending, stripe index ascending
  // inside each shard — that both commit classes share; a single write
  // shard makes this exactly the home shard's TL2 commit.
  StripeScratch.clear();
  for (const WriteEntry &E : WriteLog) {
    size_t Shard = S.shardFor(E.Addr);
    WriteShardMask |= uint64_t{1} << Shard;
    StripeScratch.push_back(
        (static_cast<uint64_t>(Shard) << ShardedStm::ShardKeyShift) |
        static_cast<uint64_t>(S.lockTableOf(Shard).indexFor(E.Addr)));
  }
  std::sort(StripeScratch.begin(), StripeScratch.end());
  StripeScratch.truncate(static_cast<size_t>(
      std::unique(StripeScratch.begin(), StripeScratch.end()) -
      StripeScratch.begin()));
  const bool CrossShard = std::popcount(WriteShardMask) > 1;
  StatsShard &Outcome = outcomeStats();

  // Prepare: acquire every write stripe in the global order. A
  // single-shard commit aborts on a held stripe exactly like TL2; a
  // cross-shard prepare spins a bounded wait first — aborting a
  // multi-shard attempt forfeits more invested work, and because every
  // committer (waiting or not) acquires along the same total order, a
  // wait-for cycle would need some attempt to wait on a key below one
  // it holds, which never happens. The bound keeps a descheduled holder
  // from stalling the prepare; each iteration counts as a PrepareRetry.
  const unsigned SpinLimit = S.config().PrepareSpinLimit;
  constexpr uint64_t StripeMask =
      (uint64_t{1} << ShardedStm::ShardKeyShift) - 1;
  for (uint64_t Key : StripeScratch) {
    std::atomic<uint64_t> &Stripe =
        S.lockTableOf(Key >> ShardedStm::ShardKeyShift)
            .stripeAt(static_cast<size_t>(Key & StripeMask));
    unsigned Spins = 0;
    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked) {
        if (!CrossShard || Spins >= SpinLimit)
          abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
        ++Spins;
        Outcome.recordPrepareRetry();
        std::this_thread::yield();
        Old = Stripe.load(std::memory_order_relaxed);
        continue;
      }
      if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        break;
    }
    Acquired.push_back(AcquiredLock{&Stripe, Key, Old});
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(Thread, Key);
  }

  // Single-fence commit, exactly as Tl2Txn::commitOrThrow: validate,
  // write the data back, then advance the clock and publish every
  // participating shard's stripe versions with relaxed stores behind one
  // release fence. Validation is UNCONDITIONAL (the `wv == rv+1` elision
  // is unsound with the advance after writeback, and doubly so here
  // where rv may be a lagging applied-clock sample). The seq_cst fence
  // below is what globally orders each committer's prepare CASes before
  // the other's validation loads; without it two cyclically conflicting
  // committers — on the same shard or across shards — can each miss the
  // other's freshly taken locks and both commit a lost update.
  // stm-order: fence(seq_cst) before(validateReadSet) label(ShardedTxn::commitOrThrow cross-shard 2PC)
  std::atomic_thread_fence(std::memory_order_seq_cst);
  validateReadSet(Self);

  // The torn-coordinated-publish self-test mutant defers a cross-shard
  // write-back until after the version publish below.
  const bool Torn = S.config().Fault.TornCoordinatedPublish && CrossShard;
  if (!Torn)
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);

  // One fence orders the coordinated write-back before every shard's
  // version publish: a reader whose acquire load of any participating
  // stripe observes one of the relaxed stores below synchronizes with
  // this fence ([atomics.fences]) and therefore sees the new data on
  // every shard the commit touched — the coordinated publish is atomic
  // to readers because all stripes stay locked until their own publish
  // store.
  std::atomic_thread_fence(std::memory_order_release);

  uint64_t Wv = S.clock().advance();
  // Publish, shard groups ascending: attribution first (the shard's
  // commit queue), then its stripes at wv, then its applied clock —
  // which must only move after the publishes (Sharded.h file comment).
  for (size_t I = 0; I < Acquired.size();) {
    size_t Shard = Acquired[I].Key >> ShardedStm::ShardKeyShift;
    S.commitRingOf(Shard).record(Wv, Self);
    size_t J = I;
    for (; J < Acquired.size() &&
           (Acquired[J].Key >> ShardedStm::ShardKeyShift) == Shard;
         ++J)
      Acquired[J].Stripe->store(LockTable::encodeVersion(Wv),
                                std::memory_order_relaxed);
    S.appliedClockOf(Shard).raiseTo(Wv);
    I = J;
  }
  Acquired.clear();

  if (Torn) {
    // Self-test mutant: every participating shard already shows wv;
    // yield to widen the window in which readers validate new-version
    // stripes while still observing pre-commit data on every shard, then
    // write the data back.
    std::this_thread::yield();
    for (const WriteEntry &E : WriteLog)
      E.Addr->store(E.Value, std::memory_order_release);
  }

  Outcome.recordCommit(PriorAborts, /*ReadOnly=*/false);
  if (CrossShard)
    Outcome.recordCrossShardCommit();
  // De-escalate the rv source once a commit proves the descriptor's
  // traffic fits its resident shard again.
  if (((ReadShardMask | WriteShardMask) & ~(uint64_t{1} << ResidentShard)) ==
      0)
    UseGlobalRv = false;
  if (Listener)
    Listener->onShardCommit(Thread, AffinityGroup,
                            ReadShardMask | WriteShardMask, CrossShard);
  if (TxEventObserver *Obs = S.observer())
    Obs->onCommit(CommitEvent{Thread, CurrentTx, Wv, PriorAborts,
                              /*ReadOnly=*/false});
}

void ShardedTxn::validateReadSet(TxThreadPair Self) {
  // Fast pass: branch-free OR-reduction over the read set, exactly as
  // Tl2Txn::validateReadSet — suspicious iff locked (bit 0) or newer
  // than rv.
  const ReadEntry *Entries = ReadSet.data();
  const size_t N = ReadSet.size();
  const uint64_t Snapshot = Rv;
  uint64_t Suspicious = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t W = Entries[I].Stripe->load(std::memory_order_acquire);
    Suspicious |= (W & 1) | static_cast<uint64_t>((W >> 1) > Snapshot);
  }
  if (Suspicious == 0)
    return;

  // Slow pass: re-walk with full attribution. Stripes this commit
  // locked itself (read-then-written locations) validate against the
  // pre-lock word; versions only grow, so re-reading stays sound.
  for (size_t I = 0; I < N; ++I) {
    const ReadEntry &E = Entries[I];
    uint64_t Word = E.Stripe->load(std::memory_order_acquire);
    StripeState State = LockTable::decode(Word);
    if (State.Locked) {
      if (State.Owner != Self)
        abortOnOwner(State.Owner, AbortSite::CommitValidate);
      uint64_t PreLock = preLockWordFor(E.Stripe);
      StripeState PreLockState = LockTable::decode(PreLock);
      if (PreLockState.Version > Rv)
        abortOnVersion(PreLockState.Version, E.Shard,
                       AbortSite::CommitValidate);
      continue;
    }
    if (State.Version > Rv)
      abortOnVersion(State.Version, E.Shard, AbortSite::CommitValidate);
  }
}

uint64_t
ShardedTxn::preLockWordFor(const std::atomic<uint64_t> *Stripe) const {
  // Linear scan: only the suspicious slow pass pays it, and write sets
  // are small. (Tl2 binary-searches, but its stripes live in one
  // contiguous table; pointers across shard tables do not sort by key.)
  for (const AcquiredLock &L : Acquired)
    if (L.Stripe == Stripe)
      return L.PreviousWord;
  assert(false && "self-locked stripe missing from the acquired list");
  return 0;
}

void ShardedTxn::releaseAcquiredLocks() {
  // Restore the pre-lock words so the stripes revert to their old
  // versions; nothing was written back yet.
  for (auto It = Acquired.rbegin(); It != Acquired.rend(); ++It)
    It->Stripe->store(It->PreviousWord, std::memory_order_release);
  Acquired.clear();
}

void ShardedTxn::abortOnOwner(TxThreadPair Owner, AbortSite Site) {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::KnownCommitter, Owner,
                                 /*CauseVersion=*/0, Site});
}

void ShardedTxn::abortOnVersion(uint64_t Version, size_t Shard,
                                AbortSite Site) {
  // A version abort means the rv snapshot trails this shard's commits.
  // When rv came from the resident shard's applied clock that lag can
  // be permanent (a busier foreign shard outruns the home clock
  // forever), so escalate the descriptor to global-clock sampling; a
  // later resident-only commit de-escalates.
  UseGlobalRv = true;
  TxThreadPair Committer;
  bool Hit = S.commitRingOf(Shard).lookup(Version, Committer);
  outcomeStats().recordCommitRingLookup(Hit);
  if (Hit)
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter, Committer,
                                   Version, Site});
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                 AbortCauseKind::UnknownCommitter,
                                 /*Cause=*/0, Version, Site});
}

void ShardedTxn::retryAbort() {
  reportAbortAndThrow(AbortEvent{Thread, CurrentTx, AbortCauseKind::Explicit,
                                 /*Cause=*/0, /*CauseVersion=*/0,
                                 AbortSite::Explicit});
}

void ShardedTxn::reportAbortAndThrow(const AbortEvent &E) {
  LastOpens = opensCount();
  releaseAcquiredLocks();
  LastEnemyKnown = E.Kind == AbortCauseKind::KnownCommitter;
  LastEnemy = LastEnemyKnown ? E.Cause : 0;
  StatsShard &St = outcomeStats();
  St.recordAbort(E.Kind, E.Site);
  // Cross-shard abort accounting keys on the shards the attempt had
  // touched when it died (the write mask is only complete for
  // commit-time aborts; read-time aborts key on what was read so far).
  if (std::popcount(ReadShardMask | WriteShardMask) > 1)
    St.recordCrossShardAbort();
  if (TxEventObserver *Obs = S.observer())
    Obs->onAbort(E);
  throw TxAbortException{};
}
