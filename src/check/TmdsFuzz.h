//===- check/TmdsFuzz.h - Map workload plans for the fuzz matrix ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The skiplist/btree workloads of the fuzz matrix (check/Fuzz.h):
/// instead of read-modify-write transactions over a flat array, each seed
/// expands into a randomized map workload (insert/update/remove/find/
/// scan/size) over a transactional skiplist or B-tree (src/tmds), which
/// runFuzzIteration / runDifferential run under every backend.
///
/// Mutating operations are key-partitioned: thread T only inserts,
/// updates or removes keys congruent to T modulo the thread count. Reads
/// roam the whole keyspace. Under any serializable execution each key's
/// final value is then determined by its owner thread's program order
/// alone, so a plain std::map oracle yields the schedule-independent
/// expected final contents every backend must agree on. Map values
/// repeat and node cells are recycled, but the checkers attribute reads
/// by version, so every run still gets a full opacity verdict. The
/// structure's own validateDirect() joins the verdicts.
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

/// Shape of the map workloads.
struct TmdsFuzzConfig : FuzzRunConfig {
  TmdsStructure Structure = TmdsStructure::SkipList;
  unsigned Threads = 3;
  unsigned TxnsPerThread = 6;
  unsigned OpsPerTxn = 3;
  /// Keyspace is [1, Keys]; reads may also probe just past it.
  unsigned Keys = 32;
};

/// Deterministically expands \p Seed into a workload plan.
TmdsPlan makeTmdsPlan(uint64_t Seed, const TmdsFuzzConfig &Cfg);

} // namespace gstm

#endif // GSTM_CHECK_TMDSFUZZ_H
