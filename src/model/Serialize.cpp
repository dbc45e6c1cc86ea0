//===- model/Serialize.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "model/Serialize.h"

#include "support/Json.h"

#include <cmath>
#include <cstring>
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
  case ModelIoStatus::Truncated:
    return "truncated";
  case ModelIoStatus::BadMagic:
    return "bad-magic";
  case ModelIoStatus::BadVersion:
    return "bad-version";
  case ModelIoStatus::ChecksumMismatch:
    return "checksum-mismatch";
  case ModelIoStatus::Corrupt:
    return "corrupt";
  case ModelIoStatus::IoError:
    return "io-error";
  }
  return "unknown";
}

namespace {

/// FNV-1a 64 over a byte range. Chosen for the payload checksum because
/// it is trivially portable, has no alignment requirements, and detects
/// the realistic failure modes (bit rot, truncation splice, partial
/// overwrite) this guard exists for; it is not a cryptographic MAC.
uint64_t fnv1a64(const unsigned char *Data, size_t Len) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < Len; ++I) {
    Hash ^= Data[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void appendU32(std::string &Out, uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<char>((V >> Shift) & 0xffu));
}

void appendU64(std::string &Out, uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<char>((V >> Shift) & 0xffu));
}

/// Bounds-checked little-endian reader over an in-memory buffer.
struct Cursor {
  const unsigned char *Data;
  size_t Size;
  size_t Off = 0;

  size_t remaining() const { return Size - Off; }

  bool readU32(uint32_t &Out) {
    if (remaining() < 4)
      return false;
    Out = 0;
    for (int I = 0; I < 4; ++I)
      Out |= static_cast<uint32_t>(Data[Off + I]) << (8 * I);
    Off += 4;
    return true;
  }

  bool readU64(uint64_t &Out) {
    if (remaining() < 8)
      return false;
    Out = 0;
    for (int I = 0; I < 8; ++I)
      Out |= static_cast<uint64_t>(Data[Off + I]) << (8 * I);
    Off += 8;
    return true;
  }
};

ModelLoadResult fail(ModelIoStatus Status, std::string Detail) {
  ModelLoadResult R;
  R.Status = Status;
  R.Detail = std::move(Detail);
  return R;
}

/// Payload encoder shared by the checksum computation and the writer:
/// states first (commit pair, abort set), then every state's outbound
/// edges in the canonical successor order so equal models always encode
/// to equal bytes.
std::string encodePayload(const Tsa &Model, uint64_t &NumEdgesOut) {
  std::string Payload;
  size_t N = Model.numStates();
  NumEdgesOut = 0;
  for (StateId Id = 0; Id < N; ++Id) {
    const StateTuple &S = Model.state(Id);
    appendU32(Payload, S.Commit);
    appendU32(Payload, static_cast<uint32_t>(S.Aborts.size()));
    for (TxThreadPair P : S.Aborts)
      appendU32(Payload, P);
  }
  for (StateId Id = 0; Id < N; ++Id) {
    std::vector<TsaEdge> Edges = Model.successors(Id);
    appendU32(Payload, static_cast<uint32_t>(Edges.size()));
    for (const TsaEdge &E : Edges) {
      appendU32(Payload, E.Dest);
      appendU64(Payload, E.Count);
    }
    NumEdgesOut += Edges.size();
  }
  return Payload;
}

/// Structured content validated out of either decoder before a Tsa is
/// built, so binary and JSON share one reconstruction + validation path.
struct DecodedModel {
  std::vector<StateTuple> States;
  /// Per-state outbound edges, file order preserved.
  std::vector<std::vector<std::pair<StateId, uint64_t>>> Edges;
  uint64_t DeclaredTransitions = 0;
};

/// Validates \p D (canonical unique states, in-range unique destinations,
/// non-zero counts, declared totals) and reconstructs the Tsa via the
/// intern/addTransition surface. Returns Corrupt with a located detail on
/// the first violation.
ModelLoadResult rebuild(DecodedModel &&D) {
  size_t N = D.States.size();
  Tsa Model;
  for (size_t I = 0; I < N; ++I) {
    StateTuple &S = D.States[I];
    for (size_t A = 0; A + 1 < S.Aborts.size(); ++A)
      if (S.Aborts[A] >= S.Aborts[A + 1])
        return fail(ModelIoStatus::Corrupt,
                    "state " + std::to_string(I) +
                        ": abort set not canonical (must be strictly "
                        "ascending)");
    StateId Id = Model.internState(S);
    if (Id != static_cast<StateId>(I))
      return fail(ModelIoStatus::Corrupt,
                  "state " + std::to_string(I) + ": duplicate of state " +
                      std::to_string(Id));
  }

  uint64_t TotalCount = 0;
  for (size_t From = 0; From < N; ++From) {
    std::unordered_set<StateId> Seen;
    for (size_t E = 0; E < D.Edges[From].size(); ++E) {
      auto [Dest, Count] = D.Edges[From][E];
      std::string Where = "edge " + std::to_string(E) + " of state " +
                          std::to_string(From) + ": ";
      if (Dest >= N)
        return fail(ModelIoStatus::Corrupt,
                    Where + "dest " + std::to_string(Dest) +
                        " out of range (" + std::to_string(N) + " states)");
      if (Count == 0)
        return fail(ModelIoStatus::Corrupt, Where + "zero frequency");
      if (!Seen.insert(Dest).second)
        return fail(ModelIoStatus::Corrupt,
                    Where + "duplicate dest " + std::to_string(Dest));
      uint64_t Sum;
      if (__builtin_add_overflow(TotalCount, Count, &Sum))
        return fail(ModelIoStatus::Corrupt,
                    Where + "frequency sum overflows");
      TotalCount = Sum;
      Model.addTransition(static_cast<StateId>(From), Dest, Count);
    }
  }
  if (TotalCount != D.DeclaredTransitions)
    return fail(ModelIoStatus::Corrupt,
                "declared " + std::to_string(D.DeclaredTransitions) +
                    " transitions, edges sum to " +
                    std::to_string(TotalCount));

  ModelLoadResult R;
  R.Model.emplace(std::move(Model));
  return R;
}

} // namespace

std::string gstm::serializeModel(const Tsa &Model) {
  uint64_t NumEdges = 0;
  std::string Payload = encodePayload(Model, NumEdges);

  std::string Out;
  Out.reserve(8 + 4 + 5 * 8 + Payload.size());
  appendU64(Out, ModelFileMagic);
  appendU32(Out, ModelFormatVersion);
  appendU64(Out, Model.numStates());
  appendU64(Out, NumEdges);
  appendU64(Out, Model.numTransitions());
  appendU64(Out, Payload.size());
  appendU64(Out, fnv1a64(
                     reinterpret_cast<const unsigned char *>(Payload.data()),
                     Payload.size()));
  Out += Payload;
  return Out;
}

ModelLoadResult gstm::deserializeModel(std::string_view Bytes) {
  Cursor C{reinterpret_cast<const unsigned char *>(Bytes.data()),
           Bytes.size()};

  uint64_t Magic;
  if (!C.readU64(Magic))
    return fail(ModelIoStatus::Truncated, "shorter than the magic");
  if (Magic != ModelFileMagic)
    return fail(ModelIoStatus::BadMagic, "not a GSTM model container");
  uint32_t Version;
  if (!C.readU32(Version))
    return fail(ModelIoStatus::Truncated, "ends inside the version field");
  if (Version != ModelFormatVersion)
    return fail(ModelIoStatus::BadVersion,
                "format version " + std::to_string(Version) +
                    ", reader supports " +
                    std::to_string(ModelFormatVersion));

  uint64_t NumStates, NumEdges, TotalTransitions, PayloadSize, Checksum;
  if (!C.readU64(NumStates) || !C.readU64(NumEdges) ||
      !C.readU64(TotalTransitions) || !C.readU64(PayloadSize) ||
      !C.readU64(Checksum))
    return fail(ModelIoStatus::Truncated, "ends inside the header");

  if (C.remaining() < PayloadSize)
    return fail(ModelIoStatus::Truncated,
                "payload promises " + std::to_string(PayloadSize) +
                    " bytes, " + std::to_string(C.remaining()) + " left");
  if (C.remaining() > PayloadSize)
    return fail(ModelIoStatus::Corrupt,
                std::to_string(C.remaining() - PayloadSize) +
                    " trailing bytes after the payload");

  uint64_t Actual = fnv1a64(C.Data + C.Off, PayloadSize);
  if (Actual != Checksum)
    return fail(ModelIoStatus::ChecksumMismatch,
                "payload checksum does not match the header");

  // Counts below are cross-checked against these header fields, so a
  // header that lies about them cannot smuggle a short payload through
  // (the checksum already binds the payload bytes themselves).
  if (NumStates > PayloadSize / 8 + 1)
    return fail(ModelIoStatus::Corrupt,
                "state count exceeds what the payload could hold");

  DecodedModel D;
  D.DeclaredTransitions = TotalTransitions;
  D.States.resize(NumStates);
  for (uint64_t I = 0; I < NumStates; ++I) {
    StateTuple &S = D.States[I];
    uint32_t AbortCount;
    if (!C.readU32(S.Commit) || !C.readU32(AbortCount))
      return fail(ModelIoStatus::Corrupt,
                  "payload ends inside state " + std::to_string(I));
    if (static_cast<uint64_t>(AbortCount) * 4 > C.remaining())
      return fail(ModelIoStatus::Corrupt,
                  "state " + std::to_string(I) + ": abort count " +
                      std::to_string(AbortCount) + " overruns the payload");
    S.Aborts.resize(AbortCount);
    for (uint32_t A = 0; A < AbortCount; ++A)
      C.readU32(S.Aborts[A]); // bounds pre-checked above
  }

  D.Edges.resize(NumStates);
  uint64_t EdgesSeen = 0;
  for (uint64_t From = 0; From < NumStates; ++From) {
    uint32_t EdgeCount;
    if (!C.readU32(EdgeCount))
      return fail(ModelIoStatus::Corrupt,
                  "payload ends at the edge list of state " +
                      std::to_string(From));
    if (static_cast<uint64_t>(EdgeCount) * 12 > C.remaining())
      return fail(ModelIoStatus::Corrupt,
                  "state " + std::to_string(From) + ": edge count " +
                      std::to_string(EdgeCount) + " overruns the payload");
    D.Edges[From].resize(EdgeCount);
    for (uint32_t E = 0; E < EdgeCount; ++E) {
      C.readU32(D.Edges[From][E].first);
      C.readU64(D.Edges[From][E].second);
    }
    EdgesSeen += EdgeCount;
  }
  if (EdgesSeen != NumEdges)
    return fail(ModelIoStatus::Corrupt,
                "header declares " + std::to_string(NumEdges) +
                    " edges, payload holds " + std::to_string(EdgesSeen));
  if (C.remaining() != 0)
    return fail(ModelIoStatus::Corrupt,
                std::to_string(C.remaining()) +
                    " undeclared bytes at the end of the payload");

  return rebuild(std::move(D));
}

ModelIoStatus gstm::saveModel(const Tsa &Model, const std::string &Path,
                              std::string *Detail) {
  auto Fail = [&](std::string Why) {
    if (Detail)
      *Detail = std::move(Why);
    return ModelIoStatus::IoError;
  };
  std::string Bytes = serializeModel(Model);
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Fail("cannot open " + Tmp + " for writing");
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
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
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail(ModelIoStatus::FileNotFound, "cannot open " + Path);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  if (In.bad())
    return fail(ModelIoStatus::IoError, "read error on " + Path);
  return deserializeModel(Bytes);
}

std::string gstm::modelToJson(const Tsa &Model) {
  JsonWriter W;
  W.beginObject();
  W.key("format").value("gstm-tsa");
  W.key("version").value(ModelFormatVersion);
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

namespace {

/// Strict numeric field read: present, a JSON number, integral,
/// non-negative and within \p Max.
bool readBoundedU64(const JsonValue &Obj, std::string_view Name,
                    uint64_t Max, uint64_t &Out) {
  const JsonValue *V = Obj.find(Name);
  if (!V || !V->isNumber() || V->Num < 0 ||
      V->Num != std::floor(V->Num) ||
      V->Num > static_cast<double>(Max))
    return false;
  Out = static_cast<uint64_t>(V->Num);
  return true;
}

bool elementU32(const JsonValue &V, uint32_t &Out) {
  if (!V.isNumber() || V.Num < 0 || V.Num != std::floor(V.Num) ||
      V.Num > static_cast<double>(UINT32_MAX))
    return false;
  Out = static_cast<uint32_t>(V.Num);
  return true;
}

} // namespace

ModelLoadResult gstm::modelFromJson(std::string_view Text) {
  std::optional<JsonValue> Doc = parseJson(Text);
  if (!Doc || !Doc->isObject())
    return fail(ModelIoStatus::Corrupt, "not a JSON object");

  const JsonValue *Format = Doc->find("format");
  if (!Format || Format->K != JsonValue::Kind::String ||
      Format->Str != "gstm-tsa")
    return fail(ModelIoStatus::BadMagic, "format field is not gstm-tsa");
  uint64_t Version;
  if (!readBoundedU64(*Doc, "version", UINT32_MAX, Version))
    return fail(ModelIoStatus::Corrupt, "missing/invalid version field");
  if (Version != ModelFormatVersion)
    return fail(ModelIoStatus::BadVersion,
                "format version " + std::to_string(Version) +
                    ", reader supports " +
                    std::to_string(ModelFormatVersion));

  DecodedModel D;
  // 2^53: the largest count JSON's double-backed numbers carry exactly.
  if (!readBoundedU64(*Doc, "total_transitions", 1ULL << 53,
                      D.DeclaredTransitions))
    return fail(ModelIoStatus::Corrupt,
                "missing/invalid total_transitions field");

  const JsonValue *States = Doc->find("states");
  const JsonValue *Edges = Doc->find("edges");
  if (!States || !States->isArray() || !Edges || !Edges->isArray())
    return fail(ModelIoStatus::Corrupt,
                "states/edges arrays missing or mistyped");
  if (States->Items.size() != Edges->Items.size())
    return fail(ModelIoStatus::Corrupt,
                "states and edges arrays differ in length");

  size_t N = States->Items.size();
  D.States.resize(N);
  for (size_t I = 0; I < N; ++I) {
    const JsonValue &SV = States->Items[I];
    std::string Where = "state " + std::to_string(I) + ": ";
    uint64_t Commit;
    if (!SV.isObject() || !readBoundedU64(SV, "commit", UINT32_MAX, Commit))
      return fail(ModelIoStatus::Corrupt, Where + "invalid commit field");
    D.States[I].Commit = static_cast<TxThreadPair>(Commit);
    const JsonValue *Aborts = SV.find("aborts");
    if (!Aborts || !Aborts->isArray())
      return fail(ModelIoStatus::Corrupt, Where + "invalid aborts field");
    D.States[I].Aborts.resize(Aborts->Items.size());
    for (size_t A = 0; A < Aborts->Items.size(); ++A)
      if (!elementU32(Aborts->Items[A], D.States[I].Aborts[A]))
        return fail(ModelIoStatus::Corrupt,
                    Where + "abort " + std::to_string(A) +
                        " is not a 32-bit pair");
  }

  D.Edges.resize(N);
  for (size_t From = 0; From < N; ++From) {
    const JsonValue &EV = Edges->Items[From];
    std::string Where = "edge list of state " + std::to_string(From) + ": ";
    if (!EV.isArray())
      return fail(ModelIoStatus::Corrupt, Where + "not an array");
    D.Edges[From].resize(EV.Items.size());
    for (size_t E = 0; E < EV.Items.size(); ++E) {
      const JsonValue &Edge = EV.Items[E];
      uint64_t Dest, Count;
      if (!Edge.isObject() ||
          !readBoundedU64(Edge, "dest", UINT32_MAX, Dest) ||
          !readBoundedU64(Edge, "count", 1ULL << 53, Count))
        return fail(ModelIoStatus::Corrupt,
                    Where + "edge " + std::to_string(E) +
                        " has invalid dest/count");
      D.Edges[From][E] = {static_cast<StateId>(Dest), Count};
    }
  }

  return rebuild(std::move(D));
}
