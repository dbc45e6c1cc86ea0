//===- model/Serialize.h - Versioned, checksummed TSA persistence --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk persistence for the thread state automaton, the first stage of
/// the model lifecycle (profile once, reuse forever). Two interchange
/// formats share one in-memory decoder surface:
///
///  * A little-endian binary container: magic + format version, a header
///    with the state/edge counts and an FNV-1a 64 checksum of the
///    payload, then the payload itself — every state tuple followed by
///    every state's outbound edge list in the canonical successor order
///    of core/ModelMath.h. Only raw *frequencies* are stored;
///    probabilities are derived on load (they are a pure function of the
///    frequencies, so persisting them could only introduce skew).
///    Because edge order is deterministic, serialize -> load ->
///    serialize is byte-identical, which tests pin.
///
///  * A JSON document (same content, self-describing field names) for
///    interchange with external tooling. TxThreadPair is 32-bit, so JSON
///    double-backed numbers are exact.
///
/// Loading is defensive: every read is bounds-checked, counts are
/// validated against the header, state tuples must be canonical and
/// unique, edge destinations must be in range, and the checksum must
/// match. A corrupt, truncated or version-skewed file yields a typed
/// ModelIoStatus — never UB, never a partially populated model.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_MODEL_SERIALIZE_H
#define GSTM_MODEL_SERIALIZE_H

#include "core/Tsa.h"

#include <optional>
#include <string>
#include <string_view>

namespace gstm {

/// Binary container magic: "GSTMTSA\0" read as a little-endian u64.
inline constexpr uint64_t ModelFileMagic = 0x0041535454534D47ULL;

/// Current binary format version. Bumped on any layout change; readers
/// reject other versions with BadVersion (no silent reinterpretation).
inline constexpr uint32_t ModelFormatVersion = 1;

/// Typed outcome of a model load/save. Every failure mode a hostile or
/// damaged file can exhibit maps to exactly one of these.
enum class ModelIoStatus : uint8_t {
  Ok = 0,
  /// The path does not exist or could not be opened for reading.
  FileNotFound,
  /// The file ends before the structure it promised (header or payload).
  Truncated,
  /// The leading magic is not a GSTM model container.
  BadMagic,
  /// The container is from a different format version.
  BadVersion,
  /// Payload bytes do not hash to the header checksum (bit rot, partial
  /// overwrite, deliberate tamper).
  ChecksumMismatch,
  /// Structurally invalid content behind a valid checksum: counts that
  /// disagree with the header, out-of-range edge destinations,
  /// non-canonical or duplicate state tuples, malformed JSON fields.
  Corrupt,
  /// Filesystem-level write/read failure.
  IoError,
};

/// Stable lower-case name for messages and tool output.
const char *modelIoStatusName(ModelIoStatus Status);

/// Outcome of a load: a status, a human-readable detail for non-Ok
/// statuses, and the model itself on success (and only on success).
struct ModelLoadResult {
  ModelIoStatus Status = ModelIoStatus::Ok;
  /// What exactly was wrong, e.g. "edge 3 of state 7: dest 912 out of
  /// range". Empty on success.
  std::string Detail;
  std::optional<Tsa> Model;

  bool ok() const { return Status == ModelIoStatus::Ok; }
};

/// Encodes \p Model into the binary container format (in memory).
std::string serializeModel(const Tsa &Model);

/// Decodes a binary container produced by serializeModel. Validates
/// structure exhaustively; see ModelIoStatus for the failure taxonomy.
ModelLoadResult deserializeModel(std::string_view Bytes);

/// Writes the binary container to \p Path. The bytes go to a temporary
/// in the same directory that is then renamed into place, so a reader
/// sees either the old complete file or the new one, never a partial
/// write. Returns Ok or IoError (detail in \p Detail when non-null).
ModelIoStatus saveModel(const Tsa &Model, const std::string &Path,
                        std::string *Detail = nullptr);

/// Reads and decodes the binary container at \p Path.
ModelLoadResult loadModel(const std::string &Path);

/// Renders \p Model as a self-describing JSON document (states with
/// commit/abort pairs, edges with raw counts). Probabilities are not
/// emitted — consumers derive them exactly as successors() does.
std::string modelToJson(const Tsa &Model);

/// Parses a document produced by modelToJson. Same validation rigor as
/// the binary path; malformed JSON or out-of-range fields yield Corrupt.
ModelLoadResult modelFromJson(std::string_view Text);

} // namespace gstm

#endif // GSTM_MODEL_SERIALIZE_H
