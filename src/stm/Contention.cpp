//===- stm/Contention.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stm/Contention.h"

#include <algorithm>

using namespace gstm;

uint64_t PoliteManager::onAbort(ThreadId Thread, TxThreadPair Enemy,
                                bool EnemyKnown, uint32_t Attempts,
                                uint64_t Opens) {
  (void)Thread;
  (void)Enemy;
  (void)EnemyKnown;
  (void)Opens;
  // Randomized exponential backoff, capped at ~0.1 ms.
  uint64_t Salted =
      Salt.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
  Salted ^= Salted >> 29;
  unsigned Shift = std::min(Attempts, 10u);
  uint64_t Window = uint64_t{100} << Shift; // ns
  return Salted % std::min<uint64_t>(Window, 100000);
}

KarmaManager::KarmaManager()
    : KarmaStore(new std::atomic<uint64_t>[StatsShardCount]),
      Karma(KarmaStore.get()) {
  for (unsigned I = 0; I < StatsShardCount; ++I)
    Karma[I].store(0, std::memory_order_relaxed);
}

uint64_t KarmaManager::onAbort(ThreadId Thread, TxThreadPair Enemy,
                               bool EnemyKnown, uint32_t Attempts,
                               uint64_t Opens) {
  (void)Attempts;
  // Work invested persists across retries so a repeatedly aborted
  // transaction eventually outranks its enemies.
  uint64_t Mine = Karma[Thread % StatsShardCount].fetch_add(
                      Opens, std::memory_order_relaxed) +
                  Opens;
  if (!EnemyKnown)
    return 0;
  uint64_t Theirs =
      Karma[pairThread(Enemy) % StatsShardCount].load(
          std::memory_order_relaxed);
  if (Mine >= Theirs)
    return 0;
  // Back off proportionally to the karma gap, capped at ~50 us.
  return std::min<uint64_t>((Theirs - Mine) * 25, 50000);
}

void KarmaManager::onCommit(ThreadId Thread, uint64_t Opens) {
  (void)Opens;
  Karma[Thread % StatsShardCount].store(0, std::memory_order_relaxed);
}

GreedyManager::GreedyManager()
    : StartStore(new std::atomic<uint64_t>[StatsShardCount]),
      Start(StartStore.get()) {
  for (unsigned I = 0; I < StatsShardCount; ++I)
    Start[I].store(~uint64_t{0}, std::memory_order_relaxed);
}

void GreedyManager::onTxBegin(ThreadId Thread) {
  // Timestamps survive retries (assigned per transaction, not per
  // attempt), which is what gives Greedy its starvation freedom.
  Start[Thread % StatsShardCount].store(
      Ticket.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
}

uint64_t GreedyManager::onAbort(ThreadId Thread, TxThreadPair Enemy,
                                bool EnemyKnown, uint32_t Attempts,
                                uint64_t Opens) {
  (void)Opens;
  if (!EnemyKnown)
    return 0;
  uint64_t Mine =
      Start[Thread % StatsShardCount].load(std::memory_order_relaxed);
  uint64_t Theirs =
      Start[pairThread(Enemy) % StatsShardCount].load(
          std::memory_order_relaxed);
  if (Mine <= Theirs)
    return 0; // I am older: press on
  // Younger transaction defers; scale with retries, capped at ~50 us.
  return std::min<uint64_t>(uint64_t{500} * (Attempts + 1), 50000);
}

std::unique_ptr<ContentionManager>
gstm::createContentionManager(const std::string &Name) {
  if (Name == "polite")
    return std::make_unique<PoliteManager>();
  if (Name == "karma")
    return std::make_unique<KarmaManager>();
  if (Name == "greedy")
    return std::make_unique<GreedyManager>();
  return nullptr;
}
