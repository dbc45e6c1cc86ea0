// stm_lint fixture: engine-internal bodies. A template-parameter
// handle type (`TxnT`) marks policy plumbing that runs below the
// transactional API: it touches orecs and clocks directly, so R1 naked-
// access and R5 callee propagation are off. The same body over a
// concrete engine handle (Tl2Txn) is user-level code and keeps both.
// Not built; linted by the lint_test ctest via `stm_lint --expect`.

#include <atomic>
#include <cstdint>

std::atomic<uint64_t> Orec{0};

template <typename TxnT> void policyHelper(TxnT &Tx) {
  (void)Tx;
  Orec.store(1, std::memory_order_release); // fine: engine-internal
}

template <typename TxnT>
  requires(sizeof(TxnT) > 0)
void constrainedPolicyHelper(TxnT &Tx) {
  (void)Tx;
  Orec.store(2, std::memory_order_release); // fine: engine-internal
}

struct Tl2Txn {
  uint64_t load(uint64_t *);
};

void userBody(Tl2Txn &Tx) {
  (void)Tx;
  Orec.store(3, std::memory_order_release); // expect-diag(R1)
}
