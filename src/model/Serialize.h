//===- model/Serialize.h - TSA persistence as one JSON document ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk persistence for the thread state automaton, the first stage of
/// the model lifecycle (profile once, reuse forever). A model file is one
/// JSON document: a "format":"gstm-tsa" tag, "version":1, the declared
/// total_transitions, every state tuple (commit pair, abort set), then
/// every state's outbound edges with raw counts in the canonical
/// successor order of core/ModelMath.h. Only raw *frequencies* are
/// stored; probabilities are derived on load (they are a pure function of
/// the frequencies, so persisting them could only introduce skew).
/// Because edge order is deterministic, text -> load -> text is
/// identical, which tests pin and `model_ctl diff` relies on.
/// TxThreadPair is 32-bit and counts are bounded by 2^53, so JSON's
/// double-backed numbers are exact.
///
/// Loading is defensive: state tuples must be canonical and unique, edge
/// destinations in range and unique per state, counts non-zero, and
/// their sum must match the declared total. A corrupt, truncated or
/// foreign file yields a typed ModelIoStatus — never UB, never a
/// partially populated model. There is no checksum: a changed digit in
/// a count is caught only when it breaks the declared total.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_MODEL_SERIALIZE_H
#define GSTM_MODEL_SERIALIZE_H

#include "core/Tsa.h"

#include <optional>
#include <string>
#include <string_view>

namespace gstm {

/// Typed outcome of a model load/save.
enum class ModelIoStatus : uint8_t {
  Ok = 0,
  /// The path does not exist or could not be read.
  FileNotFound,
  /// Not a valid model document: malformed or cut-off JSON, a wrong
  /// format or version field, counts that disagree with the declared
  /// total, out-of-range edge destinations, non-canonical or duplicate
  /// state tuples.
  Corrupt,
  /// Filesystem-level write failure.
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

/// Writes modelToJson(\p Model) and a newline to \p Path. The text goes
/// to a temporary in the same directory that is then renamed into place,
/// so a reader sees either the old complete file or the new one, never a
/// partial write. Returns Ok or IoError (detail in \p Detail when
/// non-null).
ModelIoStatus saveModel(const Tsa &Model, const std::string &Path,
                        std::string *Detail = nullptr);

/// Reads the document at \p Path and decodes it with modelFromJson.
ModelLoadResult loadModel(const std::string &Path);

/// Renders \p Model as the model document (states with commit/abort
/// pairs, edges with raw counts). Equal models render to equal text.
std::string modelToJson(const Tsa &Model);

/// Parses a document produced by modelToJson. Anything that is not a
/// valid model document is Corrupt, with the offending field in Detail.
ModelLoadResult modelFromJson(std::string_view Text);

} // namespace gstm

#endif // GSTM_MODEL_SERIALIZE_H
