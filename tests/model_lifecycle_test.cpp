//===- tests/model_lifecycle_test.cpp - model lifecycle subsystem tests ----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The model lifecycle subsystem (src/model) end to end: versioned
// serialization (byte-identical round trips, typed rejection of every
// corruption mode, JSON interchange, publication by rename), and the
// warm-start experiment pipeline that proves a persisted model guides
// with zero profiling transactions.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/ModelMath.h"
#include "model/Serialize.h"
#include "stamp/Kmeans.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <filesystem>

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
    std::string Bytes = serializeModel(Model);
    ModelLoadResult Loaded = deserializeModel(Bytes);
    ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
    EXPECT_EQ(serializeModel(*Loaded.Model), Bytes)
        << "serialize -> load -> serialize must be byte-identical";
  }
}

TEST(SerializeTest, RoundTripPreservesProbabilitiesExactly) {
  Tsa Model = randomModel(0x5eed);
  ModelLoadResult Loaded = deserializeModel(serializeModel(Model));
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
  ModelLoadResult Loaded = deserializeModel(serializeModel(Empty));
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(Loaded.Model->numStates(), 0u);
  EXPECT_EQ(Loaded.Model->numTransitions(), 0u);
}

TEST(SerializeTest, JsonRoundTripPreservesModel) {
  Tsa Model = randomModel(0x7501);
  std::string Doc = modelToJson(Model);
  ModelLoadResult Loaded = modelFromJson(Doc);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  // Canonical binary form is the equality oracle.
  EXPECT_EQ(serializeModel(*Loaded.Model), serializeModel(Model));
}

TEST(SerializeTest, OverwriteReplacesFileWithoutTempDebris) {
  std::string Dir = tempPath("gstm_save_overwrite");
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/model.tsa";
  Tsa First = randomModel(1);
  Tsa Second = randomModel(2);
  ASSERT_EQ(saveModel(First, Path), ModelIoStatus::Ok);
  ASSERT_EQ(saveModel(Second, Path), ModelIoStatus::Ok);

  ModelLoadResult Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(serializeModel(*Loaded.Model), serializeModel(Second));

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
  EXPECT_EQ(saveModel(First, Dir + "/missing/model.tsa", &Detail),
            ModelIoStatus::IoError);
  EXPECT_FALSE(Detail.empty());
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Serialization: typed failure taxonomy
//===----------------------------------------------------------------------===//

TEST(SerializeTest, TypedErrorsPerFailureMode) {
  Tsa Model = randomModel(0xdead);
  std::string Bytes = serializeModel(Model);

  EXPECT_EQ(deserializeModel("").Status, ModelIoStatus::Truncated);
  EXPECT_EQ(deserializeModel("junk").Status, ModelIoStatus::Truncated);
  EXPECT_EQ(deserializeModel("twelve bytes!").Status,
            ModelIoStatus::BadMagic);

  std::string Wrong = Bytes;
  Wrong[0] ^= 0x01; // magic
  EXPECT_EQ(deserializeModel(Wrong).Status, ModelIoStatus::BadMagic);

  std::string Versioned = Bytes;
  Versioned[8] ^= 0x40; // version field
  EXPECT_EQ(deserializeModel(Versioned).Status, ModelIoStatus::BadVersion);

  std::string Flipped = Bytes;
  Flipped.back() ^= 0x10; // payload byte
  EXPECT_EQ(deserializeModel(Flipped).Status,
            ModelIoStatus::ChecksumMismatch);

  EXPECT_EQ(deserializeModel(Bytes.substr(0, Bytes.size() / 2)).Status,
            ModelIoStatus::Truncated);

  std::string Trailing = Bytes + "x";
  EXPECT_EQ(deserializeModel(Trailing).Status, ModelIoStatus::Corrupt);

  EXPECT_EQ(loadModel("/nonexistent/dir/model.bin").Status,
            ModelIoStatus::FileNotFound);
}

TEST(SerializeTest, JsonRejectsMalformedDocuments) {
  EXPECT_EQ(modelFromJson("not json").Status, ModelIoStatus::Corrupt);
  EXPECT_EQ(modelFromJson("{}").Status, ModelIoStatus::BadMagic);
  EXPECT_EQ(modelFromJson("{\"format\":\"gstm-tsa\",\"version\":99,"
                          "\"total_transitions\":0,\"states\":[],"
                          "\"edges\":[]}")
                .Status,
            ModelIoStatus::BadVersion);
  // Edge pointing outside the state set.
  EXPECT_EQ(modelFromJson("{\"format\":\"gstm-tsa\",\"version\":1,"
                          "\"total_transitions\":1,\"states\":"
                          "[{\"commit\":1,\"aborts\":[]}],\"edges\":"
                          "[[{\"dest\":7,\"count\":1}]]}")
                .Status,
            ModelIoStatus::Corrupt);
  // Declared transition total disagreeing with the edges.
  EXPECT_EQ(modelFromJson("{\"format\":\"gstm-tsa\",\"version\":1,"
                          "\"total_transitions\":5,\"states\":"
                          "[{\"commit\":1,\"aborts\":[]}],\"edges\":"
                          "[[{\"dest\":0,\"count\":1}]]}")
                .Status,
            ModelIoStatus::Corrupt);
}

TEST(SerializeFuzzTest, EveryMutationYieldsTypedErrorNeverUB) {
  // Seeded corruption fuzz (the ASan/UBSan smoke builds re-run this
  // suite): any single bit flip or truncation of a valid container must
  // come back as a clean typed error. The reference bytes cover states,
  // abort sets and edges, so every structural field gets mutated.
  Tsa Model = randomModel(0xf022);
  std::string Bytes = serializeModel(Model);
  SplitMix64 Rng(0xb17f11b5);

  for (int Trial = 0; Trial < 600; ++Trial) {
    std::string Mutated = Bytes;
    if (Rng.nextBounded(2) == 0) {
      size_t Byte = Rng.nextBounded(Mutated.size());
      Mutated[Byte] ^= static_cast<char>(1u << Rng.nextBounded(8));
    } else {
      Mutated.resize(Rng.nextBounded(Mutated.size()));
    }
    ModelLoadResult R = deserializeModel(Mutated);
    EXPECT_NE(R.Status, ModelIoStatus::Ok)
        << "mutation #" << Trial << " was accepted";
    EXPECT_FALSE(R.Model.has_value());
    EXPECT_FALSE(R.Detail.empty());
  }
}

TEST(SerializeFuzzTest, RandomGarbageNeverCrashesTheLoader) {
  SplitMix64 Rng(0x6a2ba6e);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Garbage(Rng.nextBounded(512), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng.next());
    ModelLoadResult R = deserializeModel(Garbage);
    EXPECT_NE(R.Status, ModelIoStatus::Ok);
    (void)modelFromJson(Garbage); // must not crash either
  }
}

//===----------------------------------------------------------------------===//
// End-to-end lifecycle: profile -> persist -> warm-start guided run
//===----------------------------------------------------------------------===//

TEST(WarmStartTest, PersistedModelGuidesWithZeroProfiling) {
  // Stage 1: a "training process" profiles and saves the model file.
  std::string Path = tempPath("gstm_warmstart_e2e.tsa");
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
