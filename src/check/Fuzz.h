//===- check/Fuzz.h - Differential STM fuzzing ----------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, reproducible STM fuzzing over one matrix: every workload runs
/// under every backend through one run skeleton. A seed expands into a
/// plan, which runs under any backend (TL2 on its flat runtime over word
/// cells and over object cells (LibTm), TL2 on the sharded runtime,
/// orec-eager from src/engine, and a serial
/// reference) with schedule perturbation
/// and full history recording. Two workloads exist:
///
///  * rmw (FuzzConfig, makeFuzzPlan): read-modify-write transactions over
///    a small array, every write adding a unique delta to the value it
///    read, so any serializable execution ends at initial + sum of
///    deltas; and
///  * skiplist / btree (TmdsFuzzConfig, check/TmdsFuzz.h): key-partitioned
///    map transactions over a src/tmds container, judged against a
///    std::map oracle.
///
/// Each run is judged, first failure wins: the recorded history must pass
/// the checkers (check/Checker.h), the runtime's locks must be quiescent
/// after the workers join, the structure's own invariants must hold, the
/// final contents must equal the plan's schedule-independent expectation,
/// the commit accounting must match the plan, and on the sharded backend
/// an rmw plan's exact cross-shard commit count must match the runtime's
/// counter.
///
/// Because the expected final state is schedule-independent, the same
/// plan's outcome is directly comparable across backends: that is the
/// differential test (runDifferential). A failing seed reproduces with
/// `check_fuzz --workload=W --seed=S --backend=B`.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_FUZZ_H
#define GSTM_CHECK_FUZZ_H

#include "check/Checker.h"
#include "check/History.h"
#include "engine/TxnExecutor.h"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gstm {

/// Backend configuration a fuzz plan can execute under.
enum class FuzzBackend : uint8_t {
  /// TL2, commit-time (lazy) conflict detection — the paper's default.
  Tl2Lazy,
  /// Object-based LibTm, one TObj per cell.
  LibTm,
  /// orec-eager (src/engine): orec-based encounter-time locking with
  /// undo log and commit-time read validation.
  OrecEager,
  /// TL2 on the sharded tier (shard/Sharded.h): FuzzRunConfig::ShardCount
  /// orec partitions with cross-shard 2PC.
  Sharded,
  /// Serial ground truth: the rmw plan interpreted thread-by-thread with
  /// a hand-synthesized history, or a map plan run by one worker on TL2.
  /// Known-good for both the differential comparison and the checkers
  /// themselves.
  Reference,
};

/// Short stable name ("tl2-lazy", ...) for reports and --backend flags.
const char *fuzzBackendName(FuzzBackend B);
/// Inverse of fuzzBackendName; returns false when \p Name is unknown.
bool fuzzBackendFromName(const std::string &Name, FuzzBackend &Out);

/// Every backend, in fuzzBackendName order: flat TL2, LibTm, orec-eager,
/// TL2 on the sharded tier, and the serial reference.
inline constexpr FuzzBackend AllFuzzBackends[] = {
    FuzzBackend::Tl2Lazy, FuzzBackend::LibTm, FuzzBackend::OrecEager,
    FuzzBackend::Sharded, FuzzBackend::Reference};

/// Knobs of a run that do not shape the plan: runtime construction,
/// perturbation, fault injection and the checkers. Both workload configs
/// derive from it.
struct FuzzRunConfig {
  /// Seeded yields at transactional loads and stores, with probability
  /// 2^-PerturbShift each (SchedulePerturber, stm/Perturb.h).
  unsigned PerturbShift = 1;
  /// Shard contexts of the Sharded backend (see isValidShardCount); 1
  /// degenerates to unsharded TL2 semantics over the sharded chassis.
  unsigned ShardCount = 4;
  /// Fault injection for every backend that has the mutant (mutation
  /// self-tests only; EngineFault lists which engine each knob breaks).
  EngineFault Fault;
};

/// Shape of the rmw workload. The defaults are sized for a single-core
/// CI host: small enough that a thousand iterations run in seconds,
/// contended enough (few variables, several threads) that conflicts and
/// aborts actually happen.
struct FuzzConfig : FuzzRunConfig {
  unsigned Threads = 3;
  unsigned TxnsPerThread = 8;
  unsigned Vars = 6;
  /// Operations per transaction are drawn from [1, MaxOpsPerTxn], each on
  /// a distinct variable; roughly half become read-modify-writes.
  unsigned MaxOpsPerTxn = 4;
};

/// One generated operation: read variable Var; when IsWrite, write back
/// the value read plus Delta.
struct FuzzOp {
  unsigned Var = 0;
  bool IsWrite = false;
  uint64_t Delta = 0;
};

/// One generated transaction (one run() body).
struct FuzzTxn {
  std::vector<FuzzOp> Ops;
};

/// A fully expanded seed: initial values plus each thread's transaction
/// list. Deterministic function of (Seed, Cfg shape).
struct FuzzPlan {
  std::vector<uint64_t> Initial;
  std::vector<std::vector<FuzzTxn>> PerThread;

  /// Schedule-independent expected final state: Initial[v] plus the sum
  /// of every write delta targeting v.
  std::vector<uint64_t> expectedFinal() const;
};

/// Expands \p Seed into a plan. Write deltas are drawn from the full
/// 64-bit space, making every intermediate value of a variable unique with
/// overwhelming probability, so the checker's per-read value check can
/// tell a stale read from a fresh one.
FuzzPlan makeFuzzPlan(uint64_t Seed, const FuzzConfig &Cfg);

/// Outcome of one (seed, backend) execution, whatever the workload.
struct FuzzRunResult {
  /// Empty when the run passed; otherwise the first failure, prefixed
  /// with its class (checker / lock-residue / structure / final-state /
  /// accounting / coverage).
  std::string Error;
  /// Checker verdict over the recorded history.
  CheckResult Check;
  /// Final contents as ascending (key, value) pairs — (variable, value)
  /// for rmw, the map's entries for skiplist/btree — and the plan's
  /// expectation of them.
  std::vector<std::pair<uint64_t, uint64_t>> Final;
  std::vector<std::pair<uint64_t, uint64_t>> Expected;
  /// Attempts recorded (committed + aborted) and committed transactions.
  size_t Attempts = 0;
  size_t Committed = 0;
  /// Yields injected by the perturber (schedule-pressure telemetry).
  uint64_t PerturbYields = 0;
  /// Cross-shard writer commits the runtime counted, and (Sharded backend
  /// on rmw, where a round-robin placement makes it exact) the count the
  /// plan requires.
  uint64_t CrossShardCommits = 0;
  uint64_t ExpectedCrossShardCommits = 0;

  bool passed() const { return Error.empty(); }
};

/// Runs the plan expanded from \p Seed under \p Backend and judges it.
/// \p Cfg is a FuzzConfig (rmw) or a TmdsFuzzConfig (skiplist/btree,
/// check/TmdsFuzz.h); Fuzz.cpp instantiates both.
template <typename WorkloadConfig = FuzzConfig>
FuzzRunResult runFuzzIteration(uint64_t Seed, FuzzBackend Backend,
                               const WorkloadConfig &Cfg = WorkloadConfig());

/// Checker violations among the seeds 1..\p MaxSeed of \p Backend under
/// \p Cfg (rmw or a map workload, as for runFuzzIteration), counting
/// stops at \p Enough: the mutation self-tests' measure of whether the
/// checkers catch a fault knob.
template <typename WorkloadConfig>
unsigned checkerViolations(FuzzBackend Backend, const WorkloadConfig &Cfg,
                           uint64_t MaxSeed = 60, unsigned Enough = 3);

/// Outcome of one seed across several backends.
struct DifferentialResult {
  std::vector<std::pair<FuzzBackend, FuzzRunResult>> PerBackend;
  /// Empty when every backend passed and all final states agree.
  std::string Error;

  bool passed() const { return Error.empty(); }
};

/// Runs \p Seed under each of \p Backends and cross-compares the final
/// states. Instantiated for the same two configs as runFuzzIteration.
template <typename WorkloadConfig = FuzzConfig>
DifferentialResult
runDifferential(uint64_t Seed, const WorkloadConfig &Cfg = WorkloadConfig(),
                std::span<const FuzzBackend> Backends = AllFuzzBackends);

} // namespace gstm

#endif // GSTM_CHECK_FUZZ_H
