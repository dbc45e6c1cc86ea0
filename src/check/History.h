//===- check/History.h - Transactional history recording -----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording layer of the correctness harness (src/check/). The model-
/// checking and starvation-freedom literature the harness follows
/// (Wehrheim's small-model work, Juyal et al.) treats the *history* — the
/// interleaved sequence of reads, writes, commits and aborts — as the
/// object over which STM safety is defined; this file captures it.
///
/// HistoryRecorder plugs into both hook surfaces of the runtimes: the
/// per-access TxAccessObserver (read value + validated version, write,
/// lock acquire, attempt begin) and the per-outcome TxEventObserver
/// (commit with version, abort with cause). Each worker thread appends to
/// its own cache-line-padded log, so recording perturbs the schedule as
/// little as a mostly-thread-local instrument can; a global atomic stamps
/// attempt boundaries so the merged history carries a real-time order the
/// checkers (check/Checker.h) can lean on.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_HISTORY_H
#define GSTM_CHECK_HISTORY_H

#include "stm/Observer.h"
#include "support/Ids.h"

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gstm {

/// One recorded transactional access inside an attempt, in program order.
struct AccessRecord {
  enum class Kind : uint8_t { Load, Store, LockAcquire };
  Kind K;
  /// Memory location: TVar word address for TL2, TObj address (its Meta
  /// word) for LibTm. For LockAcquire this is null and LockId holds the
  /// identity.
  const void *Addr = nullptr;
  uint64_t Value = 0;
  /// Loads only: the stripe/object version the read validated against
  /// (0 for buffered reads).
  uint64_t Version = 0;
  /// Loads only: served from the attempt's own write set / owned stripe.
  bool Buffered = false;
  /// LockAcquire only: the lock key, a stripe index or, for an object on
  /// the flat runtime, its tagged Meta address (LockTable::objectKey).
  uint64_t LockId = 0;
};

/// How one recorded attempt ended.
enum class AttemptOutcome : uint8_t { Committed, Aborted, InFlight };

/// One transaction attempt: begin, its accesses, and its outcome.
struct AttemptRecord {
  ThreadId Thread = 0;
  TxId Tx = 0;
  /// Read version (rv) the attempt started from.
  uint64_t ReadVersion = 0;
  /// Global order stamps: BeginSeq at onTxBegin, EndSeq at commit/abort.
  /// Stamps of different threads are totally ordered; an attempt with
  /// EndSeq < another's BeginSeq finished before the other started.
  uint64_t BeginSeq = 0;
  uint64_t EndSeq = 0;
  AttemptOutcome Outcome = AttemptOutcome::InFlight;
  /// Commit-only: write version installed (0 when ReadOnly).
  uint64_t CommitVersion = 0;
  bool ReadOnly = false;
  std::vector<AccessRecord> Accesses;

  bool committed() const { return Outcome == AttemptOutcome::Committed; }

  /// First non-buffered load per address (buffered reads observed no
  /// global state), with its value and validated version. Insertion
  /// order = program order of first reads.
  std::vector<const AccessRecord *> globalReads() const;
  /// Last value written per address — what a commit installs.
  std::vector<std::pair<const void *, uint64_t>> finalWrites() const;
};

/// A complete recorded run: the quiescent initial values of every location
/// the workload uses, plus every attempt of every thread.
struct History {
  std::unordered_map<const void *, uint64_t> Initial;
  /// All attempts, merged across threads, sorted by BeginSeq.
  std::vector<AttemptRecord> Attempts;

  size_t committedCount() const;
};

/// Records the full transactional history of one run.
///
/// Attach to a runtime with both setAccessObserver(&R) and
/// setObserver(&R) (or hang it off an observer tee when another observer
/// is also needed). Initial values must be registered before the run via
/// noteInitial(); take() merges the per-thread logs after workers joined.
class HistoryRecorder : public TxAccessObserver, public TxEventObserver {
public:
  explicit HistoryRecorder(unsigned NumThreads) : PerThread(NumThreads) {}

  /// Registers the quiescent pre-run value of \p Addr.
  void noteInitial(const void *Addr, uint64_t Value) {
    Initial[Addr] = Value;
  }

  // TxAccessObserver.
  void onTxBegin(ThreadId Thread, TxId Tx, uint64_t ReadVersion) override;
  void onTxLoad(ThreadId Thread, const void *Addr, uint64_t Value,
                uint64_t Version, bool Buffered) override;
  void onTxStore(ThreadId Thread, const void *Addr, uint64_t Value) override;
  void onLockAcquire(ThreadId Thread, uint64_t LockId) override;

  // TxEventObserver.
  void onCommit(const CommitEvent &E) override;
  void onAbort(const AbortEvent &E) override;

  /// Merges the per-thread logs into one history ordered by BeginSeq.
  /// Call after all workers joined; leaves the recorder reusable.
  History take();

private:
  struct alignas(64) ThreadLog {
    std::vector<AttemptRecord> Done;
    AttemptRecord Open;
    bool HasOpen = false;
  };

  void finish(ThreadId Thread, AttemptOutcome Outcome, uint64_t Version,
              bool ReadOnly);

  std::atomic<uint64_t> NextSeq{0};
  std::vector<ThreadLog> PerThread;
  std::unordered_map<const void *, uint64_t> Initial;
};

} // namespace gstm

#endif // GSTM_CHECK_HISTORY_H
