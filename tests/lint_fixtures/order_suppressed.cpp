// stm_lint fixture: suppression interplay with the ordering pass. O-rule
// findings feed the same allow() machinery as R1-R5: a rationale-bearing
// allow(O2) silences the pairing check, and an allow without a rationale
// still trips S1.
// Not built; linted by the lint_test ctest via `stm_lint --expect`.

#include <atomic>
#include <cstdint>

// stm-order: pair(Flag) acquire-load release-store
std::atomic<uint64_t> Flag{0};

uint64_t deliberateRelaxed() {
  // stm-lint: allow(O2) monotonic flag observed under an external lock;
  // the acquire is provided by the lock's own ordering.
  return Flag.load(std::memory_order_relaxed);
}

uint64_t undocumentedRelaxed() {
  /* expect-diag(S1) */ // stm-lint: allow(O2)
  return Flag.load(std::memory_order_relaxed);
}
