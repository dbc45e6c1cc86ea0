//===- stm/Contention.h - Contention managers (baselines) ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention managers the paper positions itself against (Sec. IX):
/// Polite (Herlihy et al., PODC'03) backs a conflicting thread off
/// exponentially; Karma (Scherer & Scott, PODC'05) prioritizes the
/// transaction that has opened more objects; Greedy (Guerraoui et al.,
/// PODC'05) favours the earliest start time. CMs aim at *throughput* by
/// deciding who yields on a conflict — the paper's argument is that they
/// "clearly compromise one thread over another which only leads to higher
/// variance", unlike guided execution. These implementations exist as
/// baselines for that comparison (bench/ablation_contention).
///
/// Adaptation note: this STM resolves conflicts by self-abort (the victim
/// detects staleness and retries), so the managers steer the *retry
/// delay* rather than killing enemies — the standard formulation for
/// lazy-validation TMs. Priorities follow the original papers.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_CONTENTION_H
#define GSTM_STM_CONTENTION_H

#include "stm/StatsShard.h"
#include "support/Ids.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace gstm {

/// Decides how an aborted transaction backs off before retrying.
/// Implementations must be thread-safe; one instance serves all workers
/// of a runtime.
class ContentionManager {
public:
  virtual ~ContentionManager() = default;

  virtual std::string name() const = 0;

  /// A fresh transaction (not a retry) is starting on \p Thread.
  virtual void onTxBegin(ThreadId Thread) { (void)Thread; }

  /// \p Thread aborted; \p Enemy identifies the conflicting transaction
  /// when \p EnemyKnown and \p Opens is the aborted attempt's read+write
  /// set size. Returns nanoseconds to back off (0 = retry immediately).
  virtual uint64_t onAbort(ThreadId Thread, TxThreadPair Enemy,
                           bool EnemyKnown, uint32_t Attempts,
                           uint64_t Opens) = 0;

  /// \p Thread committed an attempt that had opened \p Opens locations.
  virtual void onCommit(ThreadId Thread, uint64_t Opens) {
    (void)Thread;
    (void)Opens;
  }
};

/// Polite: randomized exponential backoff, independent of the enemy.
class PoliteManager : public ContentionManager {
public:
  std::string name() const override { return "polite"; }
  uint64_t onAbort(ThreadId Thread, TxThreadPair Enemy, bool EnemyKnown,
                   uint32_t Attempts, uint64_t Opens) override;

private:
  std::atomic<uint64_t> Salt{0x9e3779b97f4a7c15ULL};
};

/// Karma: priority is the work invested (locations opened) since the
/// last commit; a lower-karma victim backs off proportionally to the
/// karma gap, a higher-karma one retries immediately.
class KarmaManager : public ContentionManager {
public:
  KarmaManager();
  std::string name() const override { return "karma"; }
  uint64_t onAbort(ThreadId Thread, TxThreadPair Enemy, bool EnemyKnown,
                   uint32_t Attempts, uint64_t Opens) override;
  void onCommit(ThreadId Thread, uint64_t Opens) override;

  uint64_t karmaOf(ThreadId Thread) const {
    return Karma[Thread % StatsShardCount].load(
        std::memory_order_relaxed);
  }

private:
  std::unique_ptr<std::atomic<uint64_t>[]> KarmaStore;
  std::atomic<uint64_t> *Karma;
};

/// Greedy: the transaction with the earliest start time wins; a younger
/// victim backs off by a fixed quantum scaled by its retry count.
class GreedyManager : public ContentionManager {
public:
  GreedyManager();
  std::string name() const override { return "greedy"; }
  void onTxBegin(ThreadId Thread) override;
  uint64_t onAbort(ThreadId Thread, TxThreadPair Enemy, bool EnemyKnown,
                   uint32_t Attempts, uint64_t Opens) override;

private:
  std::atomic<uint64_t> Ticket{1};
  std::unique_ptr<std::atomic<uint64_t>[]> StartStore;
  std::atomic<uint64_t> *Start;
};

/// Factory by name ("polite", "karma", "greedy"); nullptr for unknown
/// names or "none".
std::unique_ptr<ContentionManager>
createContentionManager(const std::string &Name);

} // namespace gstm

#endif // GSTM_STM_CONTENTION_H
