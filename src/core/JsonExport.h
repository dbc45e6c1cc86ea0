//===- core/JsonExport.h - Run / experiment telemetry JSON ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON serialization of run results and experiment aggregates, including
/// the sharded telemetry (stm/StatsShard.h): commit/abort totals, the
/// abort breakdown by cause and by site, retries-before-commit
/// histograms, and attempt-latency sums. `tools/model_ctl stats`
/// consumes these files and re-checks the breakdown invariants.
///
/// Telemetry schema (embedded under "telemetry" in run/experiment
/// documents, also valid standalone):
/// \code
/// {
///   "commits": N, "read_only_commits": N, "aborts": N,
///   "abort_causes": {"known_committer": N, "unknown_committer": N,
///                    "explicit": N},
///   "abort_sites":  {"read": N, "lock_acquire": N,
///                    "commit_validate": N, "explicit": N},
///   "retry_histogram": [N, ...],          // index = aborts before commit
///   "attempts": N, "attempt_nanos": N,
///   "per_thread": [{"thread": T, <same counters>}, ...]
/// }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_JSONEXPORT_H
#define GSTM_CORE_JSONEXPORT_H

#include "core/Experiment.h"
#include "core/Runner.h"
#include "support/Json.h"

#include <optional>
#include <string>
#include <vector>

namespace gstm {

/// Appends \p Agg (and optionally per-thread shards) as one telemetry
/// object to \p W.
void writeTelemetryJson(JsonWriter &W, const StatsSnapshot &Agg,
                        const std::vector<StatsSnapshot> &PerThread);

/// One run: wall/thread times, commit/abort totals, gate stats and the
/// telemetry object.
std::string runResultJson(const RunResult &R);

/// One full experiment: analyzer verdict, both sides' derived metrics and
/// telemetry.
std::string experimentJson(const ExperimentResult &R);

/// Writes \p Text to \p Path (truncating); false on I/O failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// Reads all of \p Path; std::nullopt on I/O failure.
std::optional<std::string> readTextFile(const std::string &Path);

/// Reconstructs a snapshot from a telemetry JSON object (the inverse of
/// writeTelemetryJson for the flat counters; "per_thread" is ignored).
/// std::nullopt when \p V is not an object or lacks the counter fields.
std::optional<StatsSnapshot> snapshotFromJson(const JsonValue &V);

} // namespace gstm

#endif // GSTM_CORE_JSONEXPORT_H
