//===- bench/Common.cpp ----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "core/JsonExport.h"
#include "stm/StatsShard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace gstm;

static std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Csv.size()) {
    size_t Comma = Csv.find(',', Start);
    if (Comma == std::string::npos) {
      if (Start < Csv.size())
        Out.push_back(Csv.substr(Start));
      break;
    }
    if (Comma > Start)
      Out.push_back(Csv.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

std::vector<unsigned> gstm::parseThreadCounts(const Options &Opts,
                                              const std::string &Tool,
                                              const std::string &Default) {
  std::vector<unsigned> Counts;
  for (const std::string &T : splitList(Opts.getString("threads", Default))) {
    char *End = nullptr;
    long V = std::strtol(T.c_str(), &End, 10);
    if (*End != '\0' || V < 1 || V > static_cast<long>(StatsShardCount)) {
      Counts.clear();
      break;
    }
    Counts.push_back(static_cast<unsigned>(V));
  }
  if (Counts.empty()) {
    std::fprintf(stderr, "%s: --threads needs counts in [1, %zu]\n",
                 Tool.c_str(), StatsShardCount);
    std::exit(2);
  }
  return Counts;
}

void gstm::checkStampWorkload(const Options &Opts, const std::string &Key,
                              const std::string &Name) {
  const std::vector<std::string> &Known = stampWorkloadNames();
  if (std::find(Known.begin(), Known.end(), Name) != Known.end())
    return;
  std::string Want;
  for (size_t I = 0; I < Known.size(); ++I)
    Want += (I == 0 ? "" : I + 1 == Known.size() ? " or " : ", ") + Known[I];
  Opts.fail(Key, "must be " + Want + ", not '" + Name + "'");
}

BenchOptions BenchOptions::parse(int Argc, char **Argv,
                                 std::vector<OptionSpec> Extra,
                                 Options *Parsed) {
  std::vector<OptionSpec> Specs = {
      {"threads", "LIST",
       "comma-separated thread counts, each in [1, 64] (default 8,16)"},
      {"profile-runs", "N", "training runs, at least 1 (default 6)"},
      {"runs", "N", "measurement runs per side, at least 1 (default 8)"},
      {"tfactor", "F", "Ph/Tfactor threshold, at least 1 (default 4)"},
      {"train-size", "CLASS", "training input: small|medium|large "
                              "(default medium)"},
      {"size", "CLASS", "measured input: small|medium|large (default large)"},
      {"workloads", "LIST", "comma-separated STAMP ports (default all)"},
      {"seed", "N", "base seed (default 1)"},
      {"force-guided", "0|1",
       "run the guided side even when the analyzer rejects the model "
       "(default 1)"},
      {"json-dir", "DIR", "also write per-experiment JSON exports here"},
  };
  Specs.insert(Specs.end(), Extra.begin(), Extra.end());
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "runs paper experiments on the STAMP ports",
                std::move(Specs));
  Options Opts = Cli.parseOrExit(Argc, Argv);
  BenchOptions B;
  B.ThreadCounts = parseThreadCounts(Opts, Tool);
  B.ProfileRuns = Opts.getInt("profile-runs", B.ProfileRuns, 1, UINT32_MAX);
  B.MeasureRuns = Opts.getInt("runs", B.MeasureRuns, 1, UINT32_MAX);
  // highProbabilityPrefix's precondition: below 1 no transition is
  // admitted.
  B.Tfactor = Opts.getDouble("tfactor", B.Tfactor, 1, HUGE_VAL);
  B.TrainSize = Opts.getEnum("train-size", "medium", sizeClassFromName,
                             SizeClassNames);
  B.MeasureSize =
      Opts.getEnum("size", "large", sizeClassFromName, SizeClassNames);
  B.Seed = static_cast<uint64_t>(Opts.getInt("seed", 1));
  B.ForceGuided = Opts.getBool("force-guided", B.ForceGuided);
  B.JsonDir = Opts.getString("json-dir", "");

  std::string Names = Opts.getString("workloads", "");
  B.Workloads = Names.empty() ? stampWorkloadNames() : splitList(Names);
  for (const std::string &Name : B.Workloads)
    checkStampWorkload(Opts, "workloads", Name);
  if (Parsed)
    *Parsed = std::move(Opts);
  return B;
}

ExperimentResult gstm::runStampExperiment(const std::string &Workload,
                                          const BenchOptions &Opts,
                                          unsigned Threads) {
  auto Train = createStampWorkload(Workload, Opts.TrainSize);
  auto Test = createStampWorkload(Workload, Opts.MeasureSize);
  assert(Train && Test && "workload names are checked by the parse");

  ExperimentConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.ProfileRuns = Opts.ProfileRuns;
  Cfg.MeasureRuns = Opts.MeasureRuns;
  Cfg.Tfactor = Opts.Tfactor;
  Cfg.ForceGuided = Opts.ForceGuided;
  Cfg.ProfileSeedBase = Opts.Seed * 1000 + 1;
  Cfg.MeasureSeedBase = Opts.Seed * 1000 + 500;
  ExperimentResult Result = runExperiment(*Train, *Test, Cfg);

  if (!Opts.JsonDir.empty()) {
    std::string Path = Opts.JsonDir + "/" + Workload + "_t" +
                       std::to_string(Threads) + ".json";
    if (!writeTextFile(Path, experimentJson(Result)))
      std::fprintf(stderr, "warning: cannot write '%s'\n", Path.c_str());
  }
  return Result;
}

void gstm::printBanner(const char *Title, const char *PaperRef,
                       const BenchOptions &Opts) {
  std::printf("== %s ==\n", Title);
  std::printf("   reproduces: %s\n", PaperRef);
  std::printf("   config: profile-runs=%u runs=%u tfactor=%.1f "
              "train=%s measure=%s\n\n",
              Opts.ProfileRuns, Opts.MeasureRuns, Opts.Tfactor,
              sizeClassName(Opts.TrainSize),
              sizeClassName(Opts.MeasureSize));
}

void gstm::printForcedYields(const std::vector<unsigned> &ThreadCounts) {
  unsigned Cpus = usableCpus();
  for (unsigned T : ThreadCounts)
    std::printf("forced yields: %s (%u workers, %u usable CPUs)\n",
                forcedYieldShift(ExperimentYieldShift, T, Cpus) ? "on" : "off",
                T, Cpus);
}

void gstm::printSection(const std::string &Title, const char *PaperRef) {
  std::printf("\n== %s ==\n   reproduces: %s\n\n", Title.c_str(), PaperRef);
}
