//===- model/Serialize.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "model/Serialize.h"

#include "core/JsonExport.h"
#include "support/Json.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include <unistd.h>

using namespace gstm;

const char *gstm::modelIoStatusName(ModelIoStatus Status) {
  switch (Status) {
  case ModelIoStatus::Ok:
    return "ok";
  case ModelIoStatus::FileNotFound:
    return "file-not-found";
  case ModelIoStatus::Corrupt:
    return "corrupt";
  case ModelIoStatus::IoError:
    return "io-error";
  }
  return "unknown";
}

namespace {

/// The document's "format" and "version" fields. A reader refuses any
/// other value rather than reinterpret it.
constexpr std::string_view DocFormat = "gstm-tsa";
constexpr uint64_t DocVersion = 1;

/// 2^53: the largest count JSON's double-backed numbers carry exactly.
constexpr uint64_t MaxExactCount = 1ULL << 53;

ModelLoadResult corrupt(std::string Detail) {
  return {ModelIoStatus::Corrupt, std::move(Detail), std::nullopt};
}

/// Strict numeric read: \p V is present, a JSON number, integral,
/// non-negative and within \p Max.
bool readBounded(const JsonValue *V, uint64_t Max, uint64_t &Out) {
  if (!V || !V->isNumber() || V->Num < 0 || V->Num != std::floor(V->Num) ||
      V->Num > static_cast<double>(Max))
    return false;
  Out = static_cast<uint64_t>(V->Num);
  return true;
}

} // namespace

ModelIoStatus gstm::saveModel(const Tsa &Model, const std::string &Path,
                              std::string *Detail) {
  auto Fail = [&](std::string Why) {
    if (Detail)
      *Detail = std::move(Why);
    return ModelIoStatus::IoError;
  };
  std::string Text = modelToJson(Model) + "\n";
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Fail("cannot open " + Tmp + " for writing");
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
    Out.flush();
    if (!Out) {
      std::error_code Ignored;
      std::filesystem::remove(Tmp, Ignored);
      return Fail("short write to " + Tmp);
    }
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::error_code Ignored;
    std::filesystem::remove(Tmp, Ignored);
    return Fail("rename " + Tmp + " -> " + Path + ": " + Ec.message());
  }
  return ModelIoStatus::Ok;
}

ModelLoadResult gstm::loadModel(const std::string &Path) {
  std::optional<std::string> Text = readTextFile(Path);
  if (!Text)
    return {ModelIoStatus::FileNotFound, "cannot read " + Path, std::nullopt};
  return modelFromJson(*Text);
}

std::string gstm::modelToJson(const Tsa &Model) {
  JsonWriter W;
  W.beginObject();
  W.key("format").value(DocFormat);
  W.key("version").value(DocVersion);
  W.key("total_transitions").value(Model.numTransitions());
  W.key("states").beginArray();
  for (StateId Id = 0; Id < Model.numStates(); ++Id) {
    const StateTuple &S = Model.state(Id);
    W.beginObject();
    W.key("commit").value(static_cast<uint64_t>(S.Commit));
    W.key("aborts").beginArray();
    for (TxThreadPair P : S.Aborts)
      W.value(static_cast<uint64_t>(P));
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("edges").beginArray();
  for (StateId Id = 0; Id < Model.numStates(); ++Id) {
    W.beginArray();
    for (const TsaEdge &E : Model.successors(Id)) {
      W.beginObject();
      W.key("dest").value(static_cast<uint64_t>(E.Dest));
      W.key("count").value(E.Count);
      W.endObject();
    }
    W.endArray();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

ModelLoadResult gstm::modelFromJson(std::string_view Text) {
  std::optional<JsonValue> Doc = parseJson(Text);
  if (!Doc || !Doc->isObject())
    return corrupt("not a JSON object");

  const JsonValue *Format = Doc->find("format");
  if (!Format || Format->K != JsonValue::Kind::String ||
      Format->Str != DocFormat)
    return corrupt("format field is not " + std::string(DocFormat));
  uint64_t Version;
  if (!readBounded(Doc->find("version"), UINT32_MAX, Version) ||
      Version != DocVersion)
    return corrupt("version field is not " + std::to_string(DocVersion));
  uint64_t DeclaredTransitions;
  if (!readBounded(Doc->find("total_transitions"), MaxExactCount,
                   DeclaredTransitions))
    return corrupt("missing/invalid total_transitions field");

  const JsonValue *States = Doc->find("states");
  const JsonValue *Edges = Doc->find("edges");
  if (!States || !States->isArray() || !Edges || !Edges->isArray())
    return corrupt("states/edges arrays missing or mistyped");
  if (States->Items.size() != Edges->Items.size())
    return corrupt("states and edges arrays differ in length");

  // States are interned in file order, so state I must get id I; an
  // earlier id means a duplicate.
  size_t N = States->Items.size();
  Tsa Model;
  for (size_t I = 0; I < N; ++I) {
    const JsonValue &SV = States->Items[I];
    std::string Where = "state " + std::to_string(I) + ": ";
    StateTuple S;
    uint64_t Commit;
    if (!SV.isObject() || !readBounded(SV.find("commit"), UINT32_MAX, Commit))
      return corrupt(Where + "invalid commit field");
    S.Commit = static_cast<TxThreadPair>(Commit);
    const JsonValue *Aborts = SV.find("aborts");
    if (!Aborts || !Aborts->isArray())
      return corrupt(Where + "invalid aborts field");
    for (size_t A = 0; A < Aborts->Items.size(); ++A) {
      uint64_t Pair;
      if (!readBounded(&Aborts->Items[A], UINT32_MAX, Pair))
        return corrupt(Where + "abort " + std::to_string(A) +
                       " is not a 32-bit pair");
      if (!S.Aborts.empty() && S.Aborts.back() >= Pair)
        return corrupt(Where + "abort set not canonical (must be strictly "
                               "ascending)");
      S.Aborts.push_back(static_cast<TxThreadPair>(Pair));
    }
    StateId Id = Model.internState(S);
    if (Id != static_cast<StateId>(I))
      return corrupt(Where + "duplicate of state " + std::to_string(Id));
  }

  uint64_t TotalCount = 0;
  for (size_t From = 0; From < N; ++From) {
    const JsonValue &EV = Edges->Items[From];
    if (!EV.isArray())
      return corrupt("edge list of state " + std::to_string(From) +
                     ": not an array");
    std::unordered_set<StateId> Seen;
    for (size_t E = 0; E < EV.Items.size(); ++E) {
      const JsonValue &Edge = EV.Items[E];
      std::string Where = "edge " + std::to_string(E) + " of state " +
                          std::to_string(From) + ": ";
      uint64_t Dest, Count;
      if (!Edge.isObject() ||
          !readBounded(Edge.find("dest"), UINT32_MAX, Dest) ||
          !readBounded(Edge.find("count"), MaxExactCount, Count))
        return corrupt(Where + "invalid dest/count");
      if (Dest >= N)
        return corrupt(Where + "dest " + std::to_string(Dest) +
                       " out of range (" + std::to_string(N) + " states)");
      if (Count == 0)
        return corrupt(Where + "zero frequency");
      if (!Seen.insert(static_cast<StateId>(Dest)).second)
        return corrupt(Where + "duplicate dest " + std::to_string(Dest));
      uint64_t Sum;
      if (__builtin_add_overflow(TotalCount, Count, &Sum))
        return corrupt(Where + "frequency sum overflows");
      TotalCount = Sum;
      Model.addTransition(static_cast<StateId>(From),
                          static_cast<StateId>(Dest), Count);
    }
  }
  if (TotalCount != DeclaredTransitions)
    return corrupt("declared " + std::to_string(DeclaredTransitions) +
                   " transitions, edges sum to " +
                   std::to_string(TotalCount));

  ModelLoadResult R;
  R.Model.emplace(std::move(Model));
  return R;
}
