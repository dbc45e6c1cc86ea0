//===- shard/Sharded.h - Sharded TL2 tier (partitioned orec space) -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded STM tier: the shared-memory analogue of ClusterSTM's
/// address-distributed orec space. It is TL2 (engine/Tl2.h) over a
/// partitioned orec table: ShardedTxn is the chassis running Tl2Policy
/// on ShardedStm, whose layout hooks split one LockTable into N
/// contiguous per-shard slices and give each shard context its own
/// CommitRing (per-shard commit queue for abort attribution) and applied
/// version clock. Data words hash to a home shard (or are placed
/// explicitly by the steering pass, shard/Steering.h) and to a stripe in
/// that shard's slice. Stripe indexes therefore sort shard-major, so the
/// policy's sorted prepare acquires shards ascending, stripes ascending
/// within each — a global order that precludes deadlock even though a
/// cross-shard prepare *waits* briefly on locked stripes instead of
/// aborting. The shared single-fence commit then stamps every
/// participating shard at the same write version behind one release
/// fence, one publish group per shard (DESIGN.md §4j). A write set
/// within one shard is exactly TL2 on that shard's metadata.
///
/// Versioning: one global VersionClock issues every write version, so
/// commit versions stay globally unique and per-thread monotonic (the
/// checker invariants of src/check). Each shard additionally maintains an
/// *applied* clock, raised to wv strictly after that shard's stripe
/// publishes. A transaction homed on shard H may sample its read version
/// from H's applied clock instead of the global clock: the raiser's
/// global-clock RMW chains every earlier committer's lock acquisition
/// happens-before the sample, so the lagging rv is safe (reads of
/// fresher shards abort on version and the descriptor escalates to the
/// global clock — see TxnState::UseGlobalRv). Shard-partitioned workloads
/// thus avoid sampling the globally contended clock line on their fast
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SHARD_SHARDED_H
#define GSTM_SHARD_SHARDED_H

#include "engine/Tl2.h"
#include "shard/ShardConfig.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace gstm {

/// Explicit address-range -> home-shard map, the output of the steering
/// pass (shard/Steering.h). Ranges are half-open [Begin, End) over raw
/// word addresses; addresses outside every range fall back to the
/// address hash. Install via ShardedStm::setPlacement at a quiescent
/// point only: a word's stripe state lives in its home shard's lock
/// table, so remapping an address mid-run would silently split one
/// location's version history across two orec partitions.
class ShardPlacement {
public:
  /// Maps [Begin, End) to \p Shard. Ranges must not overlap.
  void addRange(const void *Begin, const void *End, unsigned Shard);

  /// Sorts the ranges; must be called before the map is installed.
  void finalize();

  /// Home shard of \p Addr, or -1 when no range covers it.
  int lookup(const void *Addr) const;

  size_t size() const { return Ranges.size(); }

private:
  struct Range {
    uintptr_t Begin;
    uintptr_t End;
    unsigned Shard;
  };
  std::vector<Range> Ranges;
  bool Finalized = false;
};

/// One sharded STM runtime instance: N shard contexts plus the global
/// commit sequencer and the instrumentation hooks (TxHooks, as on
/// EngineStm). Workloads create one per run.
class ShardedStm : public TxHooks {
public:
  explicit ShardedStm(const ShardConfig &Config = ShardConfig());

  ShardedStm(const ShardedStm &) = delete;
  ShardedStm &operator=(const ShardedStm &) = delete;

  /// Installs an explicit placement map (nullptr to restore pure
  /// hashing). Must only be called at a quiescent point — no running
  /// transactions, all prior commits drained — because it changes which
  /// orec partition owns an address (see ShardPlacement).
  void setPlacement(const ShardPlacement *P) {
    Placement.store(P, std::memory_order_release);
  }
  const ShardPlacement *placement() const {
    return Placement.load(std::memory_order_acquire);
  }

  const ShardConfig &config() const { return Cfg; }
  unsigned shardCount() const { return Cfg.ShardCount; }

  /// Global commit sequencer: the sole source of write versions.
  VersionClock &clock() { return Clock; }

  /// Home shard of \p Addr under the active placement + hash.
  size_t shardFor(const void *Addr) const;
  /// Stripe guarding \p Addr in its home shard (post-run residue probes).
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Locks.stripeAt(keyFor(shardFor(Addr), Addr));
  }
  /// Orec of the object whose Meta word is \p Meta: a stripe, as for a
  /// word, since a shard group's 2PC takes its orecs from its slices.
  std::atomic<uint64_t> &objectOrec(const std::atomic<uint64_t> &Meta) {
    return stripeFor(&Meta);
  }

  /// The partitioned orec table: shard s owns the contiguous slice of
  /// 2^SliceBits stripes starting at index s << SliceBits, so a stripe
  /// index is a lock key that sorts shard-major.
  LockTable &lockTable() { return Locks; }
  CommitRing &commitRingOf(size_t Shard) { return Shards[Shard]->Ring; }
  /// Shard-local applied clock: raised to wv strictly after the shard's
  /// stripe publishes, so a sample v proves every commit with wv <= v
  /// has its locks visible (see file comment).
  VersionClock &appliedClockOf(size_t Shard) { return Shards[Shard]->Applied; }

  /// Per-thread telemetry over all shard contexts (stm/StatsShard.h).
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

  /// Per-descriptor layout state, a base of ShardedTxn: the steering
  /// surface plus the rv source and touched-shard masks the hooks keep.
  class TxnState {
  public:
    /// Steering affinity hint: the workload-level group (e.g. key
    /// partition) the *next* transactions operate on; recorded with each
    /// commit so the steering learner can attribute cross-shard traffic
    /// to a placeable unit. Sticky until changed; NoAffinity disables.
    static constexpr uint32_t NoAffinity = ~uint32_t{0};
    void setAffinityGroup(uint32_t Group) { AffinityGroup = Group; }
    uint32_t affinityGroup() const { return AffinityGroup; }

    /// Commit notification hook for the steering learner
    /// (shard/Steering.h): receives (affinity group, touched-shard mask,
    /// cross-shard?) after every writer commit. Per-descriptor, so only
    /// the steered workloads pay the branch.
    class CommitListener {
    public:
      virtual ~CommitListener() = default;
      virtual void onShardCommit(ThreadId Thread, uint32_t Group,
                                 uint64_t ShardMask, bool CrossShard) = 0;
    };
    void setCommitListener(CommitListener *L) { Listener = L; }

  protected:
    TxnState(ShardedStm &Stm, ThreadId Thread)
        : ResidentShard(static_cast<size_t>(Thread) % Stm.shardCount()) {}

  private:
    friend class ShardedStm;
    /// Thread's resident shard (Thread mod ShardCount): the rv source.
    size_t ResidentShard;
    /// Sticky escalation: sample rv from the global clock instead of the
    /// resident shard's applied clock. Set when a version abort shows
    /// the applied-clock snapshot lagging the data the workload actually
    /// touches (otherwise a reader of a busier foreign shard would abort
    /// on version forever); cleared when a commit's touched-shard mask
    /// was resident-only, i.e. the lag cannot recur.
    bool UseGlobalRv = false;
    uint32_t AffinityGroup = NoAffinity;
    CommitListener *Listener = nullptr;
    /// Shards the attempt has read from / written (the write mask is
    /// complete once commit computed the lock keys).
    uint64_t ReadShardMask = 0;
    uint64_t WriteShardMask = 0;
  };

  /// Layout hooks (engine/Core.h and engine/Tl2.h list the contract).
  uint64_t beginRv(TxnState &L) {
    L.ReadShardMask = L.WriteShardMask = 0;
    return L.UseGlobalRv ? Clock.sample()
                         : Shards[L.ResidentShard]->Applied.sample();
  }
  /// An object guard hashes into the table like a word (objectOrec).
  std::atomic<uint64_t> &readStripe(TxnState &L,
                                    const std::atomic<uint64_t> &Guard,
                                    bool /*Object*/) {
    size_t Shard = shardFor(&Guard);
    L.ReadShardMask |= uint64_t{1} << Shard;
    return Locks.stripeAt(keyFor(Shard, &Guard));
  }
  uint64_t writeKey(TxnState &L, const std::atomic<uint64_t> &Guard,
                    bool /*Object*/) {
    size_t Shard = shardFor(&Guard);
    L.WriteShardMask |= uint64_t{1} << Shard;
    return keyFor(Shard, &Guard);
  }
  /// Single-shard commits abort on a held stripe; cross-shard prepare
  /// waits up to PrepareSpinLimit.
  unsigned prepareSpinLimit(const TxnState &L) const {
    return std::popcount(L.WriteShardMask) > 1 ? PrepareSpinLimit : 0;
  }
  size_t groupOf(uint64_t Key) const {
    return static_cast<size_t>(Key >> SliceBits);
  }
  void groupPublished(size_t Shard, uint64_t Wv) {
    Shards[Shard]->Applied.raiseTo(Wv);
  }
  /// A version abort means rv trails this stripe's shard. When rv came
  /// from the resident applied clock that lag can be permanent (a busier
  /// foreign shard outruns the home clock forever), so the descriptor
  /// escalates to global-clock sampling; a resident-only commit
  /// de-escalates.
  CommitRing &versionAbortRing(TxnState &L,
                               const std::atomic<uint64_t> *Stripe) {
    L.UseGlobalRv = true;
    return commitRingOf(groupOf(Locks.indexOf(Stripe)));
  }
  void committed(TxnState &L, ThreadId Thread, StatsShard &St);
  /// Cross-shard abort accounting keys on the shards the attempt had
  /// touched when it died (the write mask is only complete for
  /// commit-time aborts).
  void aborted(TxnState &L, StatsShard &St) {
    if (std::popcount(L.ReadShardMask | L.WriteShardMask) > 1)
      St.recordCrossShardAbort();
  }

private:
  /// Stripes per shard slice when ShardConfig::TableBits is 0.
  static constexpr unsigned DefaultSliceBits = 18;
  /// Bounded spin on a locked stripe during cross-shard prepare before
  /// the attempt gives up and aborts. Ordered (shard, stripe) acquisition
  /// makes the waiting deadlock-free; the bound keeps a descheduled lock
  /// holder from stalling the prepare indefinitely. Each spin iteration
  /// counts into StatsShard::PrepareRetries.
  static constexpr unsigned PrepareSpinLimit = 64;

  /// Lock key of \p Addr homed on \p Shard: the address's stripe index
  /// (line hash over word offset) within the shard's slice of the table.
  uint64_t keyFor(size_t Shard, const void *Addr) const {
    return (static_cast<uint64_t>(Shard) << SliceBits) |
           (Locks.indexFor(Addr) & ((size_t{1} << SliceBits) - 1));
  }

  /// One shard context: the shard's commit queue and applied clock.
  struct ShardContext {
    explicit ShardContext(unsigned RingBits) : Ring(RingBits) {}
    CommitRing Ring;
    VersionClock Applied;
  };

  ShardConfig Cfg;
  /// log2 of the stripes in one shard's slice.
  unsigned SliceBits;
  VersionClock Clock;
  LockTable Locks;
  std::vector<std::unique_ptr<ShardContext>> Shards;
  std::atomic<const ShardPlacement *> Placement{nullptr};
  Tl2Stats Counters;
};

/// TL2 over the partitioned orec space. Only lazy detection is offered:
/// encounter-time acquisition would take stripes in access order, which
/// is incompatible with the ordered (shard, stripe) prepare that makes
/// cross-shard waiting deadlock-free. Instantiated once, in Sharded.cpp.
using ShardedTxn = EngineTxn<Tl2Policy, ShardedStm>;
extern template class EngineTxn<Tl2Policy, ShardedStm>;

} // namespace gstm

#endif // GSTM_SHARD_SHARDED_H
