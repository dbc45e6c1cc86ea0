//===- support/Json.h - Minimal JSON writer and parser -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON writer plus a small recursive-descent parser,
/// sized for the telemetry export (core/JsonExport.h) and its consumer
/// (`model_ctl stats`). The writer escapes strings and renders
/// non-finite doubles as null (JSON has no NaN/Inf); the parser accepts
/// strict JSON and stores numbers as double, which is exact for the
/// counter magnitudes the telemetry emits (< 2^53).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SUPPORT_JSON_H
#define GSTM_SUPPORT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gstm {

/// Streaming JSON writer. Usage:
/// \code
///   JsonWriter W;
///   W.beginObject().key("commits").value(uint64_t{42}).endObject();
///   std::string S = W.take();
/// \endcode
/// The caller is responsible for well-formed nesting; the writer only
/// tracks where commas are needed.
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();
  JsonWriter &key(std::string_view Name);
  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(double V);
  JsonWriter &value(bool V);
  JsonWriter &null();

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  void separate();
  std::string Out;
  /// One entry per open container: true once the first element was
  /// emitted (a comma is due before the next one).
  std::vector<bool> NeedComma;
  /// The next emission is an object value following key() — no comma.
  bool PendingValue = false;
};

/// Parsed JSON document node.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Items;                          // Array
  std::vector<std::pair<std::string, JsonValue>> Members; // Object

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(std::string_view Name) const;

  /// Number coerced to uint64 (0 for non-numbers / negatives).
  uint64_t asU64() const;
  double asDouble() const { return K == Kind::Number ? Num : 0.0; }
};

/// Parses a complete JSON document (trailing whitespace allowed);
/// std::nullopt on any syntax error.
std::optional<JsonValue> parseJson(std::string_view Text);

} // namespace gstm

#endif // GSTM_SUPPORT_JSON_H
