// stm_lint fixture: O1 torn publish. A location under a publish()
// contract may be stored relaxed only behind a dominating release
// fence (the single-fence commit idiom); a bare relaxed store lets
// readers observe the new version before the data it guards.
// Not built; linted by the lint_test ctest via `stm_lint --expect`.

#include <atomic>
#include <cstdint>

struct Entry {
  // stm-order: publish(Meta) requires release-fence-before
  std::atomic<uint64_t> Meta{0};
  std::atomic<uint64_t> Data{0};
};

Entry E;

void tornPublish(uint64_t V) {
  E.Data.store(V, std::memory_order_relaxed);
  E.Meta.store(V, std::memory_order_relaxed); // expect-diag(O1)
}

void fencedPublish(uint64_t V) {
  E.Data.store(V, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  E.Meta.store(V, std::memory_order_relaxed); // fine: fence dominates
}

void releasePublish(uint64_t V) {
  E.Data.store(V, std::memory_order_relaxed);
  E.Meta.store(V, std::memory_order_release); // fine: release store
}

void branchFence(uint64_t V, bool Fast) {
  if (Fast) {
    std::atomic_thread_fence(std::memory_order_release);
  }
  E.Meta.store(V, std::memory_order_relaxed); // expect-diag(O1)
}

// A fence orders only the writes before it: data written after the
// fence can still be invisible when the publish is seen.
void fenceBeforeData(uint64_t V) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  E.Data.store(V, std::memory_order_release);
  E.Meta.store(V, std::memory_order_relaxed); // expect-diag(O1)
}

void fenceBeforeNestedData(Entry *Es, int N, uint64_t V) {
  std::atomic_thread_fence(std::memory_order_release);
  for (int I = 0; I < N; ++I) {
    if (V != 0) {
      Es[I].Data.store(V, std::memory_order_release);
    }
  }
  E.Meta.store(V, std::memory_order_relaxed); // expect-diag(O1)
}

void nestedDataBeforeFence(Entry *Es, int N, uint64_t V) {
  for (int I = 0; I < N; ++I) {
    Es[I].Data.store(V, std::memory_order_release);
  }
  std::atomic_thread_fence(std::memory_order_release);
  E.Meta.store(V, std::memory_order_relaxed); // fine: fence after data
}
