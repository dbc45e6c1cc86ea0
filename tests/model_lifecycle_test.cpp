//===- tests/model_lifecycle_test.cpp - model lifecycle subsystem tests ----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The model lifecycle subsystem (src/model) end to end: the JSON model
// document (text-identical round trips, typed rejection of malformed
// documents, publication by rename), and the warm-start experiment
// pipeline that proves a persisted model guides with zero profiling
// transactions.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/ModelMath.h"
#include "model/Serialize.h"
#include "stamp/Kmeans.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace gstm;

namespace {

/// Random but canonical tuple stream, the raw material for randomized
/// serialization properties.
std::vector<StateTuple> randomTuples(SplitMix64 &Rng, size_t N,
                                     unsigned Threads, unsigned Sites) {
  std::vector<StateTuple> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    StateTuple S;
    S.Commit = packPair(static_cast<TxId>(Rng.nextBounded(Sites)),
                        static_cast<ThreadId>(Rng.nextBounded(Threads)));
    size_t Aborts = Rng.nextBounded(4);
    for (size_t A = 0; A < Aborts; ++A)
      S.Aborts.push_back(
          packPair(static_cast<TxId>(Rng.nextBounded(Sites)),
                   static_cast<ThreadId>(Rng.nextBounded(Threads))));
    S.canonicalize();
    Out.push_back(std::move(S));
  }
  return Out;
}

Tsa randomModel(uint64_t Seed, int Runs = 3, size_t TuplesPerRun = 120) {
  SplitMix64 Rng(Seed);
  Tsa Model;
  for (int R = 0; R < Runs; ++R)
    Model.addRun(randomTuples(Rng, TuplesPerRun, 6, 4));
  return Model;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite: shared probability math (core/ModelMath.h)
//===----------------------------------------------------------------------===//

TEST(ModelMathTest, NormalizationMatchesDirectRatio) {
  // Pin the extraction: the shared helper must reproduce exactly what
  // Tsa::successors historically computed — Count / outFrequency, sorted
  // by descending probability.
  Tsa Model = randomModel(0x11a753);
  for (StateId S = 0; S < Model.numStates(); ++S) {
    auto Succ = Model.successors(S);
    for (size_t I = 0; I < Succ.size(); ++I) {
      EXPECT_DOUBLE_EQ(Succ[I].Probability,
                       static_cast<double>(Succ[I].Count) /
                           static_cast<double>(Model.outFrequency(S)));
      if (I > 0) {
        EXPECT_GE(Succ[I - 1].Probability, Succ[I].Probability);
      }
    }
  }
}

TEST(ModelMathTest, SelectionAgreesWithAnalyzerHelper) {
  Tsa Model = randomModel(0xabcde);
  for (StateId S = 0; S < Model.numStates(); ++S) {
    auto ViaAnalyzer = highProbabilitySuccessors(Model, S, 4.0);
    auto ViaShared = selectHighProbability(Model.successors(S), 4.0);
    ASSERT_EQ(ViaAnalyzer.size(), ViaShared.size());
    for (size_t I = 0; I < ViaAnalyzer.size(); ++I) {
      EXPECT_EQ(ViaAnalyzer[I].Dest, ViaShared[I].Dest);
      EXPECT_DOUBLE_EQ(ViaAnalyzer[I].Probability,
                       ViaShared[I].Probability);
    }
  }
}

TEST(ModelMathTest, PrefixRespectsThreshold) {
  std::vector<TsaEdge> Edges = {{0, 8, 0.0}, {1, 2, 0.0}, {2, 1, 0.0}};
  normalizeEdgeProbabilities(Edges);
  // Pmax = 8/11; with Tfactor 4 the cut is 2/11: keeps 8 and 2, drops 1.
  EXPECT_EQ(highProbabilityPrefix(Edges, 4.0), 2u);
  // Tfactor 1 keeps only the maximum.
  EXPECT_EQ(highProbabilityPrefix(Edges, 1.0), 1u);
}

//===----------------------------------------------------------------------===//
// Serialization: round trips
//===----------------------------------------------------------------------===//

TEST(SerializeTest, RoundTripIsByteIdentical) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Tsa Model = randomModel(Seed * 0x9e3779b97f4a7c15ULL);
    std::string Text = modelToJson(Model);
    ModelLoadResult Loaded = modelFromJson(Text);
    ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
    EXPECT_EQ(modelToJson(*Loaded.Model), Text)
        << "text -> load -> text must be identical";
  }
}

TEST(SerializeTest, RoundTripPreservesProbabilitiesExactly) {
  Tsa Model = randomModel(0x5eed);
  ModelLoadResult Loaded = modelFromJson(modelToJson(Model));
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  ASSERT_EQ(Loaded.Model->numStates(), Model.numStates());
  EXPECT_EQ(Loaded.Model->numTransitions(), Model.numTransitions());
  for (StateId S = 0; S < Model.numStates(); ++S) {
    EXPECT_EQ(Model.state(S), Loaded.Model->state(S));
    auto A = Model.successors(S);
    auto B = Loaded.Model->successors(S);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Dest, B[I].Dest);
      EXPECT_EQ(A[I].Count, B[I].Count);
      // Probabilities are derived, never stored: equal frequencies must
      // reproduce them bit-exactly.
      EXPECT_DOUBLE_EQ(A[I].Probability, B[I].Probability);
    }
  }
}

TEST(SerializeTest, EmptyModelRoundTrips) {
  Tsa Empty;
  ModelLoadResult Loaded = modelFromJson(modelToJson(Empty));
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(Loaded.Model->numStates(), 0u);
  EXPECT_EQ(Loaded.Model->numTransitions(), 0u);
}

TEST(SerializeTest, JsonRoundTripPreservesModel) {
  Tsa Model = randomModel(0x7501);
  std::string Doc = modelToJson(Model);
  ModelLoadResult Loaded = modelFromJson(Doc);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  // The canonical document text is the equality oracle.
  EXPECT_EQ(modelToJson(*Loaded.Model), Doc);
}

TEST(SerializeTest, OverwriteReplacesFileWithoutTempDebris) {
  std::string Dir = tempPath("gstm_save_overwrite");
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/model.json";
  Tsa First = randomModel(1);
  Tsa Second = randomModel(2);
  ASSERT_EQ(saveModel(First, Path), ModelIoStatus::Ok);
  ASSERT_EQ(saveModel(Second, Path), ModelIoStatus::Ok);

  ModelLoadResult Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(modelToJson(*Loaded.Model), modelToJson(Second));

  // Publication by rename: only the final file is left in the directory.
  size_t Files = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    ++Files;
    EXPECT_EQ(Entry.path().string().find(".tmp."), std::string::npos)
        << "stale temporary: " << Entry.path();
  }
  EXPECT_EQ(Files, 1u);

  // A directory that does not exist is an IoError with a detail, and
  // leaves nothing behind.
  std::string Detail;
  EXPECT_EQ(saveModel(First, Dir + "/missing/model.json", &Detail),
            ModelIoStatus::IoError);
  EXPECT_FALSE(Detail.empty());
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Serialization: typed failure taxonomy
//===----------------------------------------------------------------------===//

TEST(SerializeTest, TypedErrorsPerFailureMode) {
  // Each way a model file can fail to load maps to one status with a
  // detail and no model; a good file loads with neither.
  std::string Dir = tempPath("gstm_load_failures");
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  auto Write = [&](const std::string &Name, const std::string &Bytes) {
    std::string Path = Dir + "/" + Name;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bytes;
    return Path;
  };
  auto ExpectFailure = [](const std::string &Path, ModelIoStatus Want) {
    ModelLoadResult R = loadModel(Path);
    EXPECT_EQ(R.Status, Want) << Path;
    EXPECT_FALSE(R.Detail.empty()) << Path;
    EXPECT_FALSE(R.Model.has_value()) << Path;
  };

  std::string Good = Dir + "/good.json";
  Tsa Model = randomModel(0xdead);
  ASSERT_EQ(saveModel(Model, Good), ModelIoStatus::Ok);
  ModelLoadResult Loaded = loadModel(Good);
  EXPECT_EQ(Loaded.Status, ModelIoStatus::Ok);
  EXPECT_TRUE(Loaded.Detail.empty());
  ASSERT_TRUE(Loaded.Model.has_value());
  EXPECT_EQ(modelToJson(*Loaded.Model), modelToJson(Model));

  ExpectFailure(Dir + "/missing.json", ModelIoStatus::FileNotFound);
  ExpectFailure(Dir, ModelIoStatus::FileNotFound);

  std::string Text = modelToJson(Model);
  ExpectFailure(Write("empty.json", ""), ModelIoStatus::Corrupt);
  ExpectFailure(Write("cut.json", Text.substr(0, Text.size() / 2)),
                ModelIoStatus::Corrupt);
  // A container in the retired binary format ("GSTMTSA\0", version 1)
  // is refused as corrupt rather than misread.
  ExpectFailure(Write("old.tsa", std::string("GSTMTSA\0\1\0\0\0", 12)),
                ModelIoStatus::Corrupt);
  std::filesystem::remove_all(Dir);
}

TEST(SerializeTest, JsonRejectsMalformedDocuments) {
  std::string Doc = modelToJson(randomModel(0xdead));
  auto Status = [](std::string_view Text) {
    return modelFromJson(Text).Status;
  };

  EXPECT_EQ(Status(""), ModelIoStatus::Corrupt);
  EXPECT_EQ(Status("not json"), ModelIoStatus::Corrupt);
  EXPECT_EQ(Status(Doc.substr(0, Doc.size() / 2)), ModelIoStatus::Corrupt);
  EXPECT_EQ(Status(Doc + "x"), ModelIoStatus::Corrupt);
  EXPECT_EQ(Status("{}"), ModelIoStatus::Corrupt);

  // A wrong format or version is refused, and the detail names the field.
  ModelLoadResult Foreign = modelFromJson(
      "{\"format\":\"other\",\"version\":1,\"total_transitions\":0,"
      "\"states\":[],\"edges\":[]}");
  EXPECT_EQ(Foreign.Status, ModelIoStatus::Corrupt);
  EXPECT_NE(Foreign.Detail.find("format"), std::string::npos);
  ModelLoadResult Versioned = modelFromJson(
      "{\"format\":\"gstm-tsa\",\"version\":99,\"total_transitions\":0,"
      "\"states\":[],\"edges\":[]}");
  EXPECT_EQ(Versioned.Status, ModelIoStatus::Corrupt);
  EXPECT_NE(Versioned.Detail.find("version"), std::string::npos);

  // Edge pointing outside the state set.
  EXPECT_EQ(Status("{\"format\":\"gstm-tsa\",\"version\":1,"
                   "\"total_transitions\":1,\"states\":"
                   "[{\"commit\":1,\"aborts\":[]}],\"edges\":"
                   "[[{\"dest\":7,\"count\":1}]]}"),
            ModelIoStatus::Corrupt);
  // Declared transition total disagreeing with the edges.
  EXPECT_EQ(Status("{\"format\":\"gstm-tsa\",\"version\":1,"
                   "\"total_transitions\":5,\"states\":"
                   "[{\"commit\":1,\"aborts\":[]}],\"edges\":"
                   "[[{\"dest\":0,\"count\":1}]]}"),
            ModelIoStatus::Corrupt);
}

TEST(SerializeFuzzTest, EveryMutationYieldsTypedErrorNeverUB) {
  // Seeded corruption fuzz (the ASan/UBSan smoke builds re-run this
  // suite): any single bit flip or truncation of a valid document must
  // come back as a clean typed error or as a valid model. With no
  // checksum, a flipped digit in a state tuple or an edge destination
  // can still name a valid model; that model must then round-trip like
  // any other. The reference text covers states, abort sets and edges,
  // so every structural field gets mutated.
  Tsa Model = randomModel(0xf022);
  std::string Doc = modelToJson(Model);
  SplitMix64 Rng(0xb17f11b5);

  unsigned Accepted = 0;
  for (int Trial = 0; Trial < 600; ++Trial) {
    std::string Mutated = Doc;
    if (Rng.nextBounded(2) == 0) {
      size_t Byte = Rng.nextBounded(Mutated.size());
      Mutated[Byte] ^= static_cast<char>(1u << Rng.nextBounded(8));
    } else {
      Mutated.resize(Rng.nextBounded(Mutated.size()));
    }
    ModelLoadResult R = modelFromJson(Mutated);
    if (!R.ok()) {
      EXPECT_FALSE(R.Model.has_value()) << "mutation #" << Trial;
      EXPECT_FALSE(R.Detail.empty()) << "mutation #" << Trial;
      continue;
    }
    ++Accepted;
    ASSERT_TRUE(R.Model.has_value()) << "mutation #" << Trial;
    std::string Text = modelToJson(*R.Model);
    ModelLoadResult Again = modelFromJson(Text);
    ASSERT_TRUE(Again.ok()) << "mutation #" << Trial << ": " << Again.Detail;
    EXPECT_EQ(modelToJson(*Again.Model), Text) << "mutation #" << Trial;
  }
  // Counts are bound by the declared total and truncations never parse,
  // so only a small minority of mutations can name a valid model.
  EXPECT_LT(Accepted, 60u);
}

TEST(SerializeFuzzTest, RandomGarbageNeverCrashesTheLoader) {
  SplitMix64 Rng(0x6a2ba6e);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Garbage(Rng.nextBounded(512), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng.next());
    ModelLoadResult R = modelFromJson(Garbage);
    EXPECT_NE(R.Status, ModelIoStatus::Ok);
  }
}

//===----------------------------------------------------------------------===//
// End-to-end lifecycle: profile -> persist -> warm-start guided run
//===----------------------------------------------------------------------===//

TEST(WarmStartTest, PersistedModelGuidesWithZeroProfiling) {
  // Stage 1: a "training process" profiles and saves the model file.
  std::string Path = tempPath("gstm_warmstart_e2e.json");
  {
    KmeansWorkload Train(KmeansParams::forSize(SizeClass::Small));
    ExperimentConfig EC;
    EC.Threads = 4;
    EC.ProfileRuns = 3;
    EC.MeasureRuns = 0; // train only
    ExperimentResult Trained = runExperiment(Train, EC);
    EXPECT_GT(Trained.ProfileCommits, 0u);
    EXPECT_EQ(Trained.ProfileRunsExecuted, 3u);
    ASSERT_GT(Trained.Model.numStates(), 0u);
    std::string Detail;
    ASSERT_EQ(saveModel(Trained.Model, Path, &Detail), ModelIoStatus::Ok)
        << Detail;
  }

  // Stage 2: a fresh "deployment process" loads and guides cold.
  ModelLoadResult Loaded = loadModel(Path);
  std::filesystem::remove(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;

  KmeansWorkload Measure(KmeansParams::forSize(SizeClass::Small));
  ExperimentConfig EC;
  EC.Threads = 4;
  EC.MeasureRuns = 3;
  EC.ForceGuided = true;
  ExperimentResult R =
      runExperimentWithModel(Measure, EC, std::move(*Loaded.Model));

  // The acceptance signal: guided execution ran from the persisted
  // model with zero profiling transactions in this "process".
  EXPECT_EQ(R.ProfileCommits, 0u);
  EXPECT_EQ(R.ProfileRunsExecuted, 0u);
  EXPECT_TRUE(R.GuidedRan);
  EXPECT_TRUE(R.Default.AllVerified);
  EXPECT_TRUE(R.Guided.AllVerified);
  EXPECT_GT(R.Model.numStates(), 0u);
  // The loaded model matches live behavior: commits resolve to known
  // states (an alien model would resolve none).
  EXPECT_GT(R.Guided.Guide.KnownStates, 0u);
  EXPECT_GT(R.Guided.DistinctStates, 0u);
}
