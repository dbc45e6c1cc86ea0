//===- tests/support_test.cpp - support library unit tests ----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Barrier.h"
#include "support/Ids.h"
#include "support/Json.h"
#include "support/Options.h"
#include "support/SplitMix64.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>

using namespace gstm;

TEST(SplitMix64Test, DeterministicFromSeed) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(SplitMix64Test, BoundedStaysInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBounded(13), 13u);
}

TEST(SplitMix64Test, BoundedCoversRange) {
  SplitMix64 Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(SplitMix64Test, DoubleInUnitInterval) {
  SplitMix64 Rng(11);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(SplitMix64Test, SplitProducesIndependentStream) {
  SplitMix64 A(5);
  SplitMix64 B = A.split();
  EXPECT_NE(A.next(), B.next());
}

TEST(IdsTest, PackUnpackRoundTrip) {
  for (TxId Tx : {TxId{0}, TxId{1}, TxId{255}, TxId{65535}})
    for (ThreadId T : {ThreadId{0}, ThreadId{7}, ThreadId{65535}}) {
      TxThreadPair P = packPair(Tx, T);
      EXPECT_EQ(pairTx(P), Tx);
      EXPECT_EQ(pairThread(P), T);
    }
}

TEST(IdsTest, DistinctPairsDistinctPacking) {
  EXPECT_NE(packPair(1, 2), packPair(2, 1));
  EXPECT_NE(packPair(0, 1), packPair(1, 0));
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  // Sample stddev of this classic data set is sqrt(32/7).
  EXPECT_NEAR(S.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(RunningStatTest, DegenerateCases) {
  RunningStat S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
  S.add(3.0);
  EXPECT_EQ(S.stddev(), 0.0);
  EXPECT_EQ(S.count(), 1u);
}

TEST(AbortHistogramTest, TailMetricSquaresDistinctCounts) {
  AbortHistogram H;
  H.add(0);
  H.add(0);
  H.add(3);
  H.add(5);
  // Distinct abort counts are {0, 3, 5}: 0 + 9 + 25.
  EXPECT_DOUBLE_EQ(H.tailMetric(), 34.0);
  EXPECT_EQ(H.maxAborts(), 5u);
  EXPECT_EQ(H.totalCommits(), 4u);
  EXPECT_EQ(H.totalAborts(), 8u);
  EXPECT_EQ(H.frequency(0), 2u);
  EXPECT_EQ(H.frequency(1), 0u);
}

TEST(AbortHistogramTest, MergeAddsFrequencies) {
  AbortHistogram A, B;
  A.add(1);
  B.add(1);
  B.add(2);
  A.merge(B);
  EXPECT_EQ(A.frequency(1), 2u);
  EXPECT_EQ(A.frequency(2), 1u);
  EXPECT_EQ(A.totalCommits(), 3u);
}

TEST(RunningStatTest, TrimmedStddevDropsOutliers) {
  RunningStat S;
  for (double X : {10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0,
                   10.03, 9.97, 10.01, 9.99, 10.0, 10.0, 10.0, 10.0,
                   10.0, 10.0, 10.0, 500.0}) // one host-noise spike
    S.add(X);
  EXPECT_GT(S.stddev(), 50.0) << "raw stddev is spike-dominated";
  EXPECT_LT(S.trimmedStddev(0.05), 0.1)
      << "trimming 5% per side removes the spike";
}

TEST(RunningStatTest, TrimmedStddevFallsBackOnSmallSamples) {
  RunningStat S;
  S.add(1.0);
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.trimmedStddev(0.05), S.stddev());
}

TEST(StatsTest, PercentImprovement) {
  EXPECT_DOUBLE_EQ(percentImprovement(10.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(percentImprovement(10.0, 12.0), -20.0);
  // Zero baseline: 0 -> 0 is "no change"; 0 -> positive has no defined
  // percentage and must not be reported as 0 (it would hide a regression).
  EXPECT_DOUBLE_EQ(percentImprovement(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isnan(percentImprovement(0.0, 5.0)));
}

TEST(OptionsTest, ParsesKeyValueAndFlags) {
  const char *Argv[] = {"prog", "--runs=5", "--size=medium", "--verbose",
                        "positional"};
  Options Opts = Options::parse(5, Argv);
  EXPECT_EQ(Opts.getInt("runs", 0), 5);
  EXPECT_EQ(Opts.getString("size", ""), "medium");
  EXPECT_TRUE(Opts.getBool("verbose", false));
  EXPECT_FALSE(Opts.has("positional"));
  EXPECT_EQ(Opts.getInt("missing", 42), 42);
}

TEST(OptionsDeathTest, MalformedNumbersExitTwo) {
  // A value that does not parse used to fall back to the default.
  const char *Argv[] = {"bin/prog", "--runs=abc", "--t=1.5x", "--n=",
                        "--big=9223372036854775808", "--seed=12x"};
  Options Opts = Options::parse(6, Argv);
  EXPECT_EXIT(Opts.getInt("runs", 9), testing::ExitedWithCode(2),
              "prog: --runs must be an integer, not 'abc'");
  EXPECT_EXIT(Opts.getDouble("t", 2.5), testing::ExitedWithCode(2),
              "prog: --t must be a number, not '1.5x'");
  EXPECT_EXIT(Opts.getInt("n", 1), testing::ExitedWithCode(2), "--n ");
  EXPECT_EXIT(Opts.getInt("big", 1), testing::ExitedWithCode(2), "--big ");
  EXPECT_EXIT(Opts.getInt("seed", 1), testing::ExitedWithCode(2), "--seed ");
}

TEST(OptionsTest, RangeReadsPassInRangeValuesAndDefaults) {
  const char *Argv[] = {"prog", "--n=4", "--f=0.5", "--lo=0"};
  Options Opts = Options::parse(4, Argv);
  EXPECT_EQ(Opts.getInt("n", 1, 1, 4), 4);
  EXPECT_EQ(Opts.getInt("lo", 1, 0, 0), 0);
  EXPECT_DOUBLE_EQ(Opts.getDouble("f", 2, 0, 0.5), 0.5);
  // An absent key returns its default unchecked (0 can mean "unset").
  EXPECT_EQ(Opts.getInt("missing", 0, 1, 8), 0);
  EXPECT_DOUBLE_EQ(Opts.getDouble("missing", -1, 0, 1), -1);
}

TEST(OptionsDeathTest, RangeReadsExitTwoOutsideTheRange) {
  const char *Argv[] = {"prog",          "--runs=0",  "--shift=64",
                        "--theta=-0.5",  "--rate=nan", "--tfactor=nan",
                        "--count=5000000000"};
  Options Opts = Options::parse(7, Argv);
  // Below Min; with no upper bound the message names only the minimum.
  EXPECT_EXIT(Opts.getInt("runs", 1, 1, INT64_MAX), testing::ExitedWithCode(2),
              "prog: --runs must be at least 1");
  EXPECT_EXIT(Opts.getDouble("theta", 0, 0, 0.75), testing::ExitedWithCode(2),
              "prog: --theta must be in \\[0, 0.75\\]");
  // Above Max.
  EXPECT_EXIT(Opts.getInt("shift", 0, 0, 63), testing::ExitedWithCode(2),
              "prog: --shift must be in \\[0, 63\\]");
  // NaN fails every comparison, so it is outside any range.
  EXPECT_EXIT(Opts.getDouble("rate", 0, 0, 1), testing::ExitedWithCode(2),
              "--rate must be in \\[0, 1\\]");
  EXPECT_EXIT(Opts.getDouble("tfactor", 4, 1, HUGE_VAL),
              testing::ExitedWithCode(2), "--tfactor must be at least 1");
  // A value that would wrap a 32-bit count.
  EXPECT_EXIT(Opts.getInt("count", 1, 1, UINT32_MAX),
              testing::ExitedWithCode(2),
              "--count must be in \\[1, 4294967295\\]");
}

TEST(OptionsDeathTest, BoolTakesOnlyOneZeroTrueFalse) {
  const char *Argv[] = {"prog", "--force-guided=no", "--json="};
  Options Opts = Options::parse(3, Argv);
  EXPECT_EXIT(Opts.getBool("force-guided", false), testing::ExitedWithCode(2),
              "prog: --force-guided must be 1, 0, true or false, not 'no'");
  EXPECT_EXIT(Opts.getBool("json", false), testing::ExitedWithCode(2),
              "--json ");
}

namespace {
bool colorFromName(const std::string &Name, int &Out) {
  Out = Name == "red" ? 1 : Name == "blue" ? 2 : 0;
  return Out != 0;
}
} // namespace

TEST(OptionsTest, EnumReadsMapKnownNames) {
  const char *Argv[] = {"prog", "--color=blue"};
  Options Opts = Options::parse(2, Argv);
  EXPECT_EQ(Opts.getEnum("color", "red", colorFromName, "red or blue"), 2);
  EXPECT_EQ(Opts.getEnum("shade", "red", colorFromName, "red or blue"), 1);
}

TEST(OptionsDeathTest, EnumReadsExitTwoOnUnknownNames) {
  const char *Argv[] = {"prog", "--color=green"};
  Options Opts = Options::parse(2, Argv);
  EXPECT_EXIT(Opts.getEnum("color", "red", colorFromName, "red or blue"),
              testing::ExitedWithCode(2),
              "prog: --color must be red or blue, not 'green'");
}

TEST(OptionsTest, BoolFalseSpellings) {
  const char *Argv[] = {"prog", "--a=0", "--b=false", "--c=true"};
  Options Opts = Options::parse(4, Argv);
  EXPECT_FALSE(Opts.getBool("a", true));
  EXPECT_FALSE(Opts.getBool("b", true));
  EXPECT_TRUE(Opts.getBool("c", false));
}

TEST(OptionsTest, CollectsPositionalsInOrder) {
  const char *Argv[] = {"prog", "first", "--k=v", "second"};
  Options Opts = Options::parse(4, Argv);
  ASSERT_EQ(Opts.positionals().size(), 2u);
  EXPECT_EQ(Opts.positionals()[0], "first");
  EXPECT_EQ(Opts.positionals()[1], "second");
  EXPECT_EQ(Opts.keys(), std::vector<std::string>{"k"});
}

TEST(OptionSetTest, ValidatesDeclaredKeys) {
  OptionSet Cli("tool", "does things",
                {{"runs", "N", "number of runs"}, {"verbose", "", "chatty"}});
  std::string Error;

  const char *Good[] = {"tool", "--runs=3", "--verbose"};
  EXPECT_TRUE(Cli.validate(Options::parse(3, Good), Error)) << Error;

  const char *Bad[] = {"tool", "--rnus=3"};
  EXPECT_FALSE(Cli.validate(Options::parse(2, Bad), Error));
  EXPECT_NE(Error.find("rnus"), std::string::npos);
}

TEST(OptionSetTest, UsageListsEveryOption) {
  OptionSet Cli("tool", "does things",
                {{"runs", "N", "number of runs"}, {"verbose", "", "chatty"}},
                "[paths...]");
  std::string U = Cli.usage();
  EXPECT_NE(U.find("does things"), std::string::npos);
  EXPECT_NE(U.find("--runs=N"), std::string::npos);
  EXPECT_NE(U.find("--verbose"), std::string::npos);
  EXPECT_NE(U.find("[paths...]"), std::string::npos);
  EXPECT_NE(U.find("--help"), std::string::npos);
}

TEST(BarrierTest, SynchronizesPhases) {
  constexpr unsigned N = 4;
  Barrier B(N);
  std::atomic<int> Phase0{0}, Phase1{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      Phase0.fetch_add(1);
      B.arriveAndWait();
      // Everyone must have finished phase 0 before any phase 1 work.
      EXPECT_EQ(Phase0.load(), static_cast<int>(N));
      Phase1.fetch_add(1);
      B.arriveAndWait();
      EXPECT_EQ(Phase1.load(), static_cast<int>(N));
    });
  for (auto &T : Threads)
    T.join();
}

TEST(BarrierTest, ReusableManyRounds) {
  constexpr unsigned N = 3;
  Barrier B(N);
  std::atomic<int> Counter{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      for (int Round = 0; Round < 50; ++Round) {
        Counter.fetch_add(1);
        B.arriveAndWait();
        EXPECT_EQ(Counter.load() % (N), 0u);
        B.arriveAndWait();
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Counter.load(), static_cast<int>(N * 50));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  double Elapsed = T.elapsedSeconds();
  EXPECT_GE(Elapsed, 0.005);
  EXPECT_LT(Elapsed, 5.0);
  T.reset();
  EXPECT_LT(T.elapsedSeconds(), 0.5);
}

// Error paths of the telemetry JSON parser: tools load model/stats
// documents from disk, so hostile or truncated input must be rejected
// (std::nullopt), never crash the process.

TEST(JsonParserTest, MalformedEscapesRejected) {
  EXPECT_FALSE(parseJson("\"\\x\"").has_value());     // unknown escape
  EXPECT_FALSE(parseJson("\"\\u12\"").has_value());   // short \u
  EXPECT_FALSE(parseJson("\"\\u12G4\"").has_value()); // non-hex digit
  EXPECT_FALSE(parseJson("\"\\").has_value());        // backslash at EOF
  EXPECT_FALSE(parseJson("{\"k\\\": 1}").has_value()); // escape eats quote
  // Well-formed escapes still round-trip.
  auto Ok = parseJson("\"a\\n\\t\\\\\\\"\\u0041\"");
  ASSERT_TRUE(Ok.has_value());
  EXPECT_EQ(Ok->Str, "a\n\t\\\"A");
}

TEST(JsonParserTest, TruncatedInputsRejected) {
  const std::string Doc =
      "{\"telemetry\": {\"commits\": 12, \"aborts\": [1, 2.5e3, -4]}, "
      "\"tag\": \"run\\u0031\"}";
  ASSERT_TRUE(parseJson(Doc).has_value());
  // No proper prefix of an object document is a complete document; every
  // one must be rejected gracefully.
  for (size_t Len = 0; Len < Doc.size(); ++Len)
    EXPECT_FALSE(parseJson(std::string_view(Doc).substr(0, Len)).has_value())
        << "prefix length " << Len;
}

TEST(JsonParserTest, DeepNestingRejectedWithoutCrash) {
  // Within the parser's recursion bound: fine.
  std::string Shallow(100, '[');
  Shallow.append(100, ']');
  EXPECT_TRUE(parseJson(Shallow).has_value());
  // Past the bound (even a 100k-bracket bomb): rejected, not a stack
  // overflow.
  std::string Bomb(100000, '[');
  EXPECT_FALSE(parseJson(Bomb).has_value());
  std::string Closed(5000, '[');
  Closed.append(5000, ']');
  EXPECT_FALSE(parseJson(Closed).has_value());
  std::string Mixed;
  for (int I = 0; I < 50000; ++I)
    Mixed += "[{\"k\":";
  EXPECT_FALSE(parseJson(Mixed).has_value());
}

TEST(JsonParserTest, DuplicateKeysNormalizeToFirst) {
  // The writer never emits duplicates; on input the parser keeps all
  // members and find() resolves to the first, so duplicate keys are
  // normalized rather than being an error or a crash.
  auto Doc = parseJson("{\"k\": 1, \"k\": 2, \"other\": 3}");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_NE(Doc->find("k"), nullptr);
  EXPECT_EQ(Doc->find("k")->asU64(), 1u);
  EXPECT_EQ(Doc->Members.size(), 3u);
}

TEST(JsonParserTest, SeededGarbageNeverCrashes) {
  // Fuzz-ish sweep: random strings over a JSON-flavoured alphabet plus
  // random corruptions of a valid document. The parser must terminate
  // with *some* verdict on each; the assertions only consume the result.
  const std::string Alphabet = "{}[]\",:.\\eE+-0123456789truefalsn u\t\n";
  SplitMix64 Rng(0x15eed);
  size_t Accepted = 0;
  for (int Iter = 0; Iter < 2000; ++Iter) {
    std::string Input;
    size_t Len = Rng.nextBounded(64);
    for (size_t I = 0; I < Len; ++I)
      Input += Alphabet[Rng.nextBounded(Alphabet.size())];
    Accepted += parseJson(Input).has_value();
  }
  const std::string Valid =
      "{\"a\": [1, 2, {\"b\": \"c\\n\"}], \"d\": -1.5e2, \"e\": null}";
  for (int Iter = 0; Iter < 2000; ++Iter) {
    std::string Input = Valid;
    Input[Rng.nextBounded(Input.size())] =
        Alphabet[Rng.nextBounded(Alphabet.size())];
    Accepted += parseJson(Input).has_value();
  }
  // Some corruptions (e.g. digit for digit) stay valid; most don't.
  EXPECT_LT(Accepted, 4000u);
}
