//===- tests/bench_options_test.cpp - paper-driver option parsing tests ----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/SynQuakeBench.h"

#include "stm/StatsShard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

using namespace gstm;

namespace {

/// Parses \p Args as the command line of the STAMP paper driver.
BenchOptions parseArgs(std::vector<std::string> Args,
                       std::vector<OptionSpec> Extra = {},
                       Options *Parsed = nullptr) {
  Args.insert(Args.begin(), "bench/paper_stamp");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  return BenchOptions::parse(static_cast<int>(Args.size()), Argv.data(),
                             std::move(Extra), Parsed);
}

/// Parses \p Args as the command line of the SynQuake paper driver.
SynQuakeBenchOptions parseSynQuake(std::vector<std::string> Args) {
  Args.insert(Args.begin(), "bench/paper_synquake");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  return SynQuakeBenchOptions::parse(static_cast<int>(Args.size()),
                                     Argv.data());
}

} // namespace

TEST(BenchOptionsTest, DefaultsWithNoArguments) {
  BenchOptions B = parseArgs({});
  EXPECT_EQ(B.ThreadCounts, (std::vector<unsigned>{8, 16}));
  EXPECT_EQ(B.ProfileRuns, 6u);
  EXPECT_EQ(B.MeasureRuns, 8u);
  EXPECT_DOUBLE_EQ(B.Tfactor, 4.0);
  EXPECT_EQ(B.TrainSize, SizeClass::Medium);
  EXPECT_EQ(B.MeasureSize, SizeClass::Large);
  EXPECT_EQ(B.Workloads, stampWorkloadNames());
  EXPECT_EQ(B.Seed, 1u);
  EXPECT_TRUE(B.ForceGuided);
  EXPECT_TRUE(B.JsonDir.empty());
}

TEST(BenchOptionsTest, ParsesEveryCommonKey) {
  BenchOptions B = parseArgs(
      {"--threads=1,4,64", "--profile-runs=2", "--runs=3", "--tfactor=2.5",
       "--train-size=small", "--size=medium", "--workloads=kmeans,genome",
       "--seed=7", "--force-guided=0", "--json-dir=out"});
  EXPECT_EQ(B.ThreadCounts, (std::vector<unsigned>{1, 4, 64}));
  EXPECT_EQ(B.ProfileRuns, 2u);
  EXPECT_EQ(B.MeasureRuns, 3u);
  EXPECT_DOUBLE_EQ(B.Tfactor, 2.5);
  EXPECT_EQ(B.TrainSize, SizeClass::Small);
  EXPECT_EQ(B.MeasureSize, SizeClass::Medium);
  EXPECT_EQ(B.Workloads, (std::vector<std::string>{"kmeans", "genome"}));
  EXPECT_EQ(B.Seed, 7u);
  EXPECT_FALSE(B.ForceGuided);
  EXPECT_EQ(B.JsonDir, "out");
}

TEST(BenchOptionsTest, ExtraKeyIsAcceptedAndReadBack) {
  Options Parsed;
  BenchOptions B = parseArgs({"--workload=genome", "--runs=2"},
                             {{"workload", "NAME", "STAMP port"}}, &Parsed);
  EXPECT_EQ(B.MeasureRuns, 2u);
  EXPECT_EQ(Parsed.getString("workload", "kmeans"), "genome");
  EXPECT_EQ(Parsed.getInt("runs", 0), 2);
}

TEST(BenchOptionsTest, ToolNameDropsTheDirectory) {
  // Every parse error names the binary the way a user typed it last.
  EXPECT_EQ(toolName("build/bench/paper_stamp"), "paper_stamp");
  EXPECT_EQ(toolName("/abs/path/paper_synquake"), "paper_synquake");
  EXPECT_EQ(toolName("paper_stamp"), "paper_stamp");
}

TEST(BenchOptionsTest, ThreadCountsDefaultAppliesOnlyWhenAbsent) {
  // The examples pass their own default; the paper drivers keep 8,16.
  Options None;
  EXPECT_EQ(parseThreadCounts(None, "t"), (std::vector<unsigned>{8, 16}));
  EXPECT_EQ(parseThreadCounts(None, "t", "4"), (std::vector<unsigned>{4}));
  const char *Argv[] = {"t", "--threads=2,3"};
  Options Given = Options::parse(2, Argv);
  EXPECT_EQ(parseThreadCounts(Given, "t", "4"),
            (std::vector<unsigned>{2, 3}));
}

TEST(BenchOptionsDeathTest, UnknownKeyExitsTwo) {
  EXPECT_EXIT(parseArgs({"--rusn=1"}), testing::ExitedWithCode(2),
              "unknown option '--rusn'");
  // A key one binary declares is still unknown to one that does not.
  EXPECT_EXIT(parseArgs({"--workload=kmeans"}), testing::ExitedWithCode(2),
              "unknown option '--workload'");
  // There is one tuple grouping, the sequence tuples a guided run forms
  // online, so no front end takes a grouping option.
  EXPECT_EXIT(parseArgs({"--grouping=causal"}), testing::ExitedWithCode(2),
              "unknown option '--grouping'");
}

TEST(BenchOptionsDeathTest, ThreadCountOutsideShardRangeExitsTwo) {
  std::string TooMany = "--threads=8," + std::to_string(StatsShardCount + 1);
  for (std::string Bad : {std::string("--threads=0"), TooMany,
                          std::string("--threads=-4"),
                          std::string("--threads=8x")})
    EXPECT_EXIT(parseArgs({Bad}), testing::ExitedWithCode(2), "--threads")
        << Bad;
}

TEST(BenchOptionsDeathTest, RunCountBelowOneExitsTwo) {
  EXPECT_EXIT(parseArgs({"--runs=0"}), testing::ExitedWithCode(2),
              "--runs must be in \\[1, 4294967295\\]");
  EXPECT_EXIT(parseArgs({"--runs=-1"}), testing::ExitedWithCode(2),
              "--runs must be in \\[1, 4294967295\\]");
  EXPECT_EXIT(parseArgs({"--profile-runs=0"}), testing::ExitedWithCode(2),
              "--profile-runs must be in \\[1, 4294967295\\]");
}

TEST(BenchOptionsDeathTest, RunCountAbove32BitsExitsTwo) {
  // The counts are 32-bit: 2^32 used to wrap to 0 runs.
  EXPECT_EXIT(parseArgs({"--runs=4294967296"}), testing::ExitedWithCode(2),
              "--runs must be in \\[1, 4294967295\\]");
  EXPECT_EXIT(parseArgs({"--profile-runs=4294967296"}),
              testing::ExitedWithCode(2),
              "--profile-runs must be in \\[1, 4294967295\\]");
  EXPECT_EQ(parseArgs({"--runs=4294967295"}).MeasureRuns, 4294967295u);
}

TEST(BenchOptionsDeathTest, TfactorBelowOneExitsTwo) {
  // highProbabilityPrefix asserts Tfactor >= 1; below it no transition
  // is admitted, and NaN fails every comparison.
  for (std::string Bad : {std::string("--tfactor=0"),
                          std::string("--tfactor=0.5"),
                          std::string("--tfactor=-4"),
                          std::string("--tfactor=nan")})
    EXPECT_EXIT(parseArgs({Bad}), testing::ExitedWithCode(2),
                "--tfactor must be at least 1")
        << Bad;
}

TEST(BenchOptionsDeathTest, HelpListsDeclaredKeysAndExitsZero) {
  // Usage goes to stdout; the child points stdout at stderr so the death
  // test can match it.
  auto Help = [] {
    std::fflush(stdout);
    dup2(STDERR_FILENO, STDOUT_FILENO);
    parseArgs({"--help"}, {{"workload", "NAME", "STAMP port"}});
  };
  EXPECT_EXIT(Help(), testing::ExitedWithCode(0), "--runs=N");
  EXPECT_EXIT(Help(), testing::ExitedWithCode(0), "--workload=NAME");
}

//===----------------------------------------------------------------------===//
// SynQuakeBenchOptions (Table V, Figures 11 and 12)
//===----------------------------------------------------------------------===//

TEST(SynQuakeBenchOptionsTest, ParsesEveryKey) {
  SynQuakeBenchOptions B = parseSynQuake(
      {"--threads=1,4,64", "--players=20", "--frames=3", "--train-frames=2",
       "--profile-runs=1", "--runs=2", "--tfactor=1", "--seed=9"});
  EXPECT_EQ(B.ThreadCounts, (std::vector<unsigned>{1, 4, 64}));
  EXPECT_EQ(B.Players, 20u);
  EXPECT_EQ(B.Frames, 3u);
  EXPECT_EQ(B.TrainFrames, 2u);
  EXPECT_EQ(B.ProfileRunsPerQuest, 1u);
  EXPECT_EQ(B.MeasureRuns, 2u);
  EXPECT_DOUBLE_EQ(B.Tfactor, 1.0);
  EXPECT_EQ(B.Seed, 9u);
}

TEST(SynQuakeBenchOptionsDeathTest, UnknownKeyExitsTwo) {
  EXPECT_EXIT(parseSynQuake({"--rusn=3"}), testing::ExitedWithCode(2),
              "unknown option '--rusn'");
  // A STAMP-only key is not a SynQuake key.
  EXPECT_EXIT(parseSynQuake({"--workloads=kmeans"}),
              testing::ExitedWithCode(2), "unknown option '--workloads'");
}

TEST(SynQuakeBenchOptionsDeathTest, ThreadCountOutsideShardRangeExitsTwo) {
  std::string TooMany = "--threads=8," + std::to_string(StatsShardCount + 1);
  for (std::string Bad : {std::string("--threads=0"), TooMany,
                          std::string("--threads=-4"),
                          std::string("--threads=8x")})
    EXPECT_EXIT(parseSynQuake({Bad}), testing::ExitedWithCode(2),
                "--threads")
        << Bad;
}

TEST(SynQuakeBenchOptionsDeathTest, CountBelowOneExitsTwo) {
  for (const char *Key :
       {"runs", "frames", "train-frames", "profile-runs", "players"})
    for (const char *Value : {"0", "-1"})
      EXPECT_EXIT(parseSynQuake({std::string("--") + Key + "=" + Value}),
                  testing::ExitedWithCode(2),
                  std::string("--") + Key +
                      " must be in \\[1, 4294967295\\]")
          << Key << "=" << Value;
}

TEST(SynQuakeBenchOptionsDeathTest, CountAbove32BitsExitsTwo) {
  for (const char *Key :
       {"runs", "frames", "train-frames", "profile-runs", "players"})
    EXPECT_EXIT(parseSynQuake({std::string("--") + Key + "=4294967296"}),
                testing::ExitedWithCode(2),
                std::string("--") + Key +
                    " must be in \\[1, 4294967295\\]")
        << Key;
}

TEST(SynQuakeBenchOptionsDeathTest, TfactorBelowOneExitsTwo) {
  for (std::string Bad : {std::string("--tfactor=0"),
                          std::string("--tfactor=0.5"),
                          std::string("--tfactor=nan")})
    EXPECT_EXIT(parseSynQuake({Bad}), testing::ExitedWithCode(2),
                "--tfactor must be at least 1")
        << Bad;
}

TEST(SynQuakeBenchOptionsDeathTest, HelpListsKeysAndExitsZero) {
  auto Help = [] {
    std::fflush(stdout);
    dup2(STDERR_FILENO, STDOUT_FILENO);
    parseSynQuake({"--help"});
  };
  EXPECT_EXIT(Help(), testing::ExitedWithCode(0), "--train-frames=N");
}
