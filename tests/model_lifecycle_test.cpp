//===- tests/model_lifecycle_test.cpp - model lifecycle subsystem tests ----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The model lifecycle subsystem (src/model) end to end: versioned
// serialization (byte-identical round trips, typed rejection of every
// corruption mode, JSON interchange), the key-stamped on-disk store, and
// the warm-start experiment pipeline that proves a persisted model guides
// with zero profiling transactions.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/ModelMath.h"
#include "model/Serialize.h"
#include "model/Store.h"
#include "shard/ShardConfig.h"
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
// Store
//===----------------------------------------------------------------------===//

namespace {

ModelKey testKey(const std::string &Workload = "kmeans",
                 unsigned Threads = 8) {
  ModelKey K;
  K.Workload = Workload;
  K.Threads = Threads;
  K.ConfigHash = hashConfigString("unit-test-config");
  return K;
}

struct StoreFixture : ::testing::Test {
  void SetUp() override {
    Dir = tempPath("gstm_store_" +
                   std::to_string(
                       ::testing::UnitTest::GetInstance()->random_seed()) +
                   "_" + ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
  std::string Dir;
};

} // namespace

TEST_F(StoreFixture, SaveLoadRoundTripUnderKey) {
  ModelStore Store(Dir);
  Tsa Model = randomModel(0x570e);
  ModelKey Key = testKey();
  std::string Detail;
  ASSERT_EQ(Store.save(Key, Model, &Detail), ModelIoStatus::Ok) << Detail;

  EXPECT_TRUE(Store.contains(Key));
  ModelLoadResult Loaded = Store.load(Key);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Detail;
  EXPECT_EQ(serializeModel(*Loaded.Model), serializeModel(Model));

  std::vector<StoreEntry> Entries = Store.list();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Key.Workload, "kmeans");
  EXPECT_EQ(Entries[0].Key.Threads, 8u);
  EXPECT_EQ(Entries[0].Key.ConfigHash, Key.ConfigHash);
  EXPECT_EQ(Entries[0].NumStates, Model.numStates());
}

TEST_F(StoreFixture, MissingEntryIsFileNotFound) {
  ModelStore Store(Dir);
  EXPECT_EQ(Store.load(testKey()).Status, ModelIoStatus::FileNotFound);
  EXPECT_FALSE(Store.contains(testKey()));
  EXPECT_TRUE(Store.list().empty());
}

TEST_F(StoreFixture, RefusesKeyMismatch) {
  ModelStore Store(Dir);
  ModelKey Trained = testKey("kmeans", 8);
  ASSERT_EQ(Store.save(Trained, randomModel(0x6e75), nullptr),
            ModelIoStatus::Ok);

  // Simulate the classic operator mistake: hand-copy a container onto
  // the path of a different key. The embedded key must refuse it.
  ModelKey Wanted = testKey("kmeans", 16);
  std::filesystem::copy_file(Store.pathFor(Trained),
                             Store.pathFor(Wanted));
  ModelLoadResult R = Store.load(Wanted);
  EXPECT_EQ(R.Status, ModelIoStatus::KeyMismatch);
  EXPECT_FALSE(R.Model.has_value());
  EXPECT_FALSE(Store.contains(Wanted));

  // The genuine key still loads.
  EXPECT_TRUE(Store.load(Trained).ok());
}

TEST_F(StoreFixture, ShardConfigSelectsDistinctStoreKeys) {
  // Every knob in the canonical shard rendering must move the config
  // hash: a model trained under 4 shards (or steering) describes a
  // different conflict structure and must not collide with the unsharded
  // entry. The rendering keeps naming the one address hash, so keys
  // stored before it became fixed still match.
  ShardConfig Base;
  Base.ShardCount = 1;
  ShardConfig Four = Base;
  Four.ShardCount = 4;
  ShardConfig Steered = Four;
  Steered.Steering = true;

  EXPECT_EQ(shardConfigCanonical(Base), "shards=1;shard-hash=mix;steer=0;");
  EXPECT_NE(shardConfigCanonical(Base), shardConfigCanonical(Four));
  EXPECT_NE(shardConfigCanonical(Four), shardConfigCanonical(Steered));

  auto KeyWith = [](const ShardConfig &SC) {
    ModelKey K;
    K.Workload = "kmeans";
    K.Threads = 8;
    K.ConfigHash =
        hashConfigString("grouping=sequence;" + shardConfigCanonical(SC));
    return K;
  };
  ModelKey Plain = KeyWith(Base);
  ModelKey Sharded = KeyWith(Four);
  EXPECT_NE(Plain.ConfigHash, Sharded.ConfigHash);
  EXPECT_NE(Plain.id(), Sharded.id());
  EXPECT_NE(KeyWith(Steered).ConfigHash, Sharded.ConfigHash);

  // Both live side by side in one store and load back independently.
  ModelStore Store(Dir);
  Tsa PlainModel = randomModel(0x51a4);
  Tsa ShardModel = randomModel(0x51a5);
  ASSERT_EQ(Store.save(Plain, PlainModel, nullptr), ModelIoStatus::Ok);
  ASSERT_EQ(Store.save(Sharded, ShardModel, nullptr), ModelIoStatus::Ok);
  EXPECT_EQ(Store.list().size(), 2u);
  ModelLoadResult A = Store.load(Plain);
  ModelLoadResult B = Store.load(Sharded);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(serializeModel(*A.Model), serializeModel(PlainModel));
  EXPECT_EQ(serializeModel(*B.Model), serializeModel(ShardModel));
}

TEST_F(StoreFixture, OverwriteReplacesEntryWithoutTempDebris) {
  ModelStore Store(Dir);
  ModelKey Key = testKey();
  Tsa First = randomModel(1);
  Tsa Second = randomModel(2);
  ASSERT_EQ(Store.save(Key, First, nullptr), ModelIoStatus::Ok);
  ASSERT_EQ(Store.save(Key, Second, nullptr), ModelIoStatus::Ok);

  ModelLoadResult Loaded = Store.load(Key);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(serializeModel(*Loaded.Model), serializeModel(Second));
  EXPECT_EQ(Store.list().size(), 1u) << "overwrite must not duplicate";

  // Atomic publication: only final files in the store directory.
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    EXPECT_EQ(Entry.path().string().find(".tmp."), std::string::npos)
        << "stale temporary: " << Entry.path();
}

TEST_F(StoreFixture, CorruptContainerReportsTypedError) {
  ModelStore Store(Dir);
  ModelKey Key = testKey();
  ASSERT_EQ(Store.save(Key, randomModel(3), nullptr), ModelIoStatus::Ok);

  // Truncate the container mid-model.
  std::string Path = Store.pathFor(Key);
  std::error_code Ec;
  auto Size = std::filesystem::file_size(Path, Ec);
  ASSERT_FALSE(Ec);
  std::filesystem::resize_file(Path, Size / 2, Ec);
  ASSERT_FALSE(Ec);
  ModelLoadResult R = Store.load(Key);
  EXPECT_NE(R.Status, ModelIoStatus::Ok);
  EXPECT_FALSE(R.Model.has_value());
}

//===----------------------------------------------------------------------===//
// End-to-end lifecycle: profile -> persist -> warm-start guided run
//===----------------------------------------------------------------------===//

TEST(WarmStartTest, PersistedModelGuidesWithZeroProfiling) {
  // Stage 1: a "training process" profiles and publishes to the store.
  std::string Dir = tempPath("gstm_warmstart_e2e");
  std::filesystem::remove_all(Dir);
  ModelKey Key;
  Key.Workload = "kmeans";
  Key.Threads = 4;
  Key.ConfigHash = hashConfigString("e2e");
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
    ModelStore Store(Dir);
    std::string Detail;
    ASSERT_EQ(Store.save(Key, Trained.Model, &Detail), ModelIoStatus::Ok)
        << Detail;
  }

  // Stage 2: a fresh "deployment process" loads and guides cold.
  ModelStore Store(Dir);
  ModelLoadResult Loaded = Store.load(Key);
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
  std::filesystem::remove_all(Dir);
}
