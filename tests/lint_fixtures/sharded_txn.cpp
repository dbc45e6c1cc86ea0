// stm_lint fixture: ShardedTxn bodies are transactional contexts with the
// full rule set — the sharded tier is the TL2 descriptor over a
// partitioned orec space, so R1-R5 apply exactly as for Tl2Txn.
// Not built; linted by the lint_test ctest via `stm_lint --expect`.

#include <atomic>

struct ShardedTxn {
  struct CommitListener;
  template <typename F> void run(unsigned, F &&);
};
template <typename T> struct TVar;

std::atomic<unsigned> Hits{0};
struct Overflow {};

void shardedDriver(ShardedTxn &Txn, TVar<unsigned> &A, TVar<unsigned> &B) {
  Hits.fetch_add(1u); // driver body, outside any attempt: allowed
  Txn.run(0, [&](ShardedTxn &Tx) {
    Tx.store(A, Tx.load(B) + 1u);
    Hits.fetch_add(1u);                        // expect-diag(R1)
  });
  // Clean control: handle-only accesses; a throw merely drops the
  // buffered writes on a redo-log engine.
  Txn.run(1, [&](ShardedTxn &Tx) {
    unsigned V = Tx.load(A);
    if (V > 7u)
      throw Overflow{};
    Tx.store(B, V);
  });
}

// A nested type of the handle is not a handle: this body is plain code.
void attachListener(ShardedTxn::CommitListener *Listener) {
  Hits.fetch_add(Listener ? 1u : 0u);
}
