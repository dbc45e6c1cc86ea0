//===- check/TmdsFuzz.h - Differential fuzz for the tmds containers ------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-level companion to the word-level fuzzer in check/Fuzz.h:
/// instead of read-modify-write transactions over a flat array, each seed
/// expands into a randomized map workload (insert/update/remove/find/
/// scan/size) over a transactional skiplist or B-tree (src/tmds), run
/// under the same backend matrix — TL2, LibTm, the policy-templated
/// engines (orec-eager, tlrw, 2pl-undo), and a
/// serial reference execution — with seeded schedule perturbation and
/// full history checking.
///
/// Mutating operations are key-partitioned: thread T only inserts,
/// updates or removes keys congruent to T modulo the thread count. Reads
/// roam the whole keyspace. Under any serializable execution each key's
/// final value is then determined by its owner thread's program order
/// alone, so a plain std::map oracle yields the schedule-independent
/// expected final contents every backend must agree on.
///
/// Verdicts per run: the opacity/serializability checkers must not find a
/// Violation (Inconclusive is acceptable — node addresses churn, so the
/// checkers run with ValuesAreUnique=false), no lock residue may survive
/// quiescence, the structure's own validateDirect() must hold, the final
/// contents must equal the oracle, and the commit count must match the
/// plan. The differential driver additionally requires all backends to
/// agree on the final contents.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_TMDSFUZZ_H
#define GSTM_CHECK_TMDSFUZZ_H

#include "check/Fuzz.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gstm {

/// Which tmds container a fuzz run drives.
enum class TmdsStructure : uint8_t { SkipList, BTree };

const char *tmdsStructureName(TmdsStructure S);
bool tmdsStructureFromName(const std::string &Name, TmdsStructure &Out);

/// One map operation inside a transaction.
struct TmdsOp {
  enum class Kind : uint8_t { Insert, Update, Remove, Find, Scan, Size };
  Kind K = Kind::Find;
  uint64_t Key = 0;
  uint64_t Value = 0;   // Insert/Update payload
  uint32_t Count = 0;   // Scan length
};

/// One transaction: its operations in program order.
struct TmdsTxn {
  std::vector<TmdsOp> Ops;
};

/// A fully expanded workload: quiescent prepopulation plus per-thread
/// transaction sequences with thread-partitioned mutation keys.
struct TmdsPlan {
  /// Sorted, unique (key, value) pairs inserted before the timed run.
  std::vector<std::pair<uint64_t, uint64_t>> Prepopulate;
  std::vector<std::vector<TmdsTxn>> PerThread;

  /// Oracle: final sorted (key, value) contents under any serializable
  /// execution (valid because mutations are key-partitioned by thread).
  std::vector<std::pair<uint64_t, uint64_t>> expectedFinal() const;
};

/// Workload shape knobs; Checker.ValuesAreUnique is forced off by the
/// runners (distinct map entries may legitimately carry equal values and
/// node cells are recycled across keys between runs).
struct TmdsFuzzConfig {
  TmdsStructure Structure = TmdsStructure::SkipList;
  unsigned Threads = 3;
  unsigned TxnsPerThread = 6;
  unsigned OpsPerTxn = 3;
  /// Keyspace is [1, Keys]; reads may also probe just past it.
  unsigned Keys = 32;
  unsigned PreemptShift = 2;
  unsigned PerturbShift = 2;
  CheckerConfig Checker;
};

/// Deterministically expands \p Seed into a workload plan.
TmdsPlan makeTmdsPlan(uint64_t Seed, const TmdsFuzzConfig &Cfg);

/// Outcome of one structure run under one backend.
struct TmdsRunResult {
  /// Empty when the run passed; otherwise the first verdict violated.
  std::string Error;
  CheckResult Check;
  /// Final sorted (key, value) contents read back quiescently.
  std::vector<std::pair<uint64_t, uint64_t>> Final;
  std::vector<std::pair<uint64_t, uint64_t>> Expected;
  size_t Attempts = 0;
  size_t Committed = 0;
  size_t PerturbYields = 0;

  bool passed() const { return Error.empty(); }
};

/// Runs one seed under one backend (Reference = serial execution of the
/// same plan on the TL2-backed structure).
TmdsRunResult runTmdsFuzzIteration(uint64_t Seed, FuzzBackend Backend,
                                   const TmdsFuzzConfig &Cfg);

/// One seed across all backends plus cross-backend agreement on the
/// final contents.
struct TmdsDifferentialResult {
  std::vector<std::pair<FuzzBackend, TmdsRunResult>> PerBackend;
  std::string Error;

  bool passed() const { return Error.empty(); }
};

TmdsDifferentialResult runTmdsDifferential(uint64_t Seed,
                                           const TmdsFuzzConfig &Cfg);

} // namespace gstm

#endif // GSTM_CHECK_TMDSFUZZ_H
