//===- tools/check_fuzz.cpp - STM correctness fuzzer ----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Schedule-perturbation fuzzer over the fuzz matrix (src/check/Fuzz.h):
// every workload under every STM backend.
//
//   check_fuzz [--iters=N] [--seed-base=S] [--workload=rmw|skiplist|btree]
//              [--backend=all|<name>] [--shards=N] [--threads=T] ...
//   check_fuzz --seed=S [--backend=B]       # reproduce one seed
//   check_fuzz --smoke                      # CI preset: 1024 iterations
//
// Each iteration expands a seed into a randomized transactional workload,
// runs it under the selected backend(s) with seeded schedule perturbation,
// records the full history, and fails if the opacity/serializability
// checkers object, the final state deviates from the plan's expectation,
// backends diverge from each other, or lock residue survives quiescence.
//
// Every failure prints the exact reproduction command; exit status is the
// number of failing seeds (capped at 125), or 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "check/TmdsFuzz.h"
#include "shard/ShardConfig.h"
#include "stm/StatsShard.h"
#include "support/Options.h"

#include <cstdio>
#include <string>

using namespace gstm;

int main(int Argc, char **Argv) {
  std::string BackendNames = "all";
  for (FuzzBackend B : AllFuzzBackends)
    BackendNames += std::string(", ") + fuzzBackendName(B);

  OptionSet Cli(
      "check_fuzz",
      "schedule-perturbation correctness fuzzer over the STM backends",
      {
          {"iters", "N", "seeds to run (default 256; 1024 with --smoke)"},
          {"seed-base", "S", "first seed of the range (default 1)"},
          {"seed", "S", "reproduce exactly one seed"},
          {"backend", "B", "one of " + BackendNames + " (default all)"},
          {"workload", "W",
           "rmw (flat read-modify-write vars), skiplist or btree "
           "(transactional map over src/tmds; default rmw)"},
          {"threads", "T", "worker threads per iteration"},
          {"txns", "K", "transactions per thread"},
          {"vars", "V", "shared variables in the workload (rmw)"},
          {"keys", "K", "keyspace size (skiplist/btree; default 32)"},
          {"shards", "N",
           "shard contexts of the sharded backend (power of two in [1, 64]; "
           "default 4)"},
          {"ops", "N", "max operations per transaction"},
          {"perturb-shift", "N",
           "schedule-perturbation density: yield with probability 2^-N at "
           "each transactional load and store, N in [0, 63] (default 1)"},
          {"smoke", "", "CI preset: 1024 seeds per backend"},
          {"verbose", "", "print every iteration, not just failures"},
          {"inject-skip-validation", "",
           "fault injection: skip read validation, TL2 (flat, sharded or "
           "libtm) + orec-eager (checkers must object)"},
          {"inject-torn-publish", "",
           "fault injection: publish torn versions, TL2 (flat, sharded or "
           "libtm) (checkers must object)"},
          {"inject-skip-undo", "",
           "fault injection: skip undo replay on abort, orec-eager "
           "(checkers must object)"},
      });
  Options Opts = Cli.parseOrExit(Argc, Argv);

  const bool Smoke = Opts.getBool("smoke", false);
  const uint64_t SeedBase = Opts.getInt("seed-base", 1);
  const uint64_t Iters = Opts.getInt("iters", Smoke ? 1024 : 256, 1, INT64_MAX);
  const std::string BackendName = Opts.getString("backend", "all");
  const std::string WorkloadName = Opts.getString("workload", "rmw");
  const bool Verbose = Opts.getBool("verbose", false);

  FuzzConfig Cfg;
  TmdsFuzzConfig TCfg;
  if (WorkloadName != "rmw")
    TCfg.Structure = Opts.getEnum("workload", "", tmdsStructureFromName,
                                  "rmw, skiplist or btree");
  FuzzBackend Only = FuzzBackend::Tl2Lazy;
  std::span<const FuzzBackend> Backends = AllFuzzBackends;
  if (BackendName != "all") {
    Only = Opts.getEnum("backend", "", fuzzBackendFromName,
                        ("one of " + BackendNames).c_str());
    Backends = {&Only, 1};
  }
  const unsigned Threads =
      Opts.getInt("threads", Cfg.Threads, 1, StatsShardCount);
  Cfg.ShardCount = Opts.getInt("shards", Cfg.ShardCount, 1, MaxShardCount);
  if (!isValidShardCount(Cfg.ShardCount)) {
    std::fprintf(stderr,
                 "check_fuzz: --shards=%u is not a power of two in [1, %u]\n",
                 Cfg.ShardCount, MaxShardCount);
    return 2;
  }

  // The shift sizes a `1 << N` mask; a 64-bit shift is undefined.
  Cfg.PerturbShift = Opts.getInt("perturb-shift", Cfg.PerturbShift, 0, 63);
  // Fault injection, for watching the checkers catch a broken STM by hand
  // (the mutation self-tests in tests/ automate this).
  Cfg.Fault.SkipReadValidation = Opts.getBool("inject-skip-validation", false);
  Cfg.Fault.TornVersionPublish = Opts.getBool("inject-torn-publish", false);
  Cfg.Fault.SkipUndoReplay = Opts.getBool("inject-skip-undo", false);
  static_cast<FuzzRunConfig &>(TCfg) = Cfg;

  // Plan shapes: the two workloads keep their own defaults. Each is a
  // count in [1, 2^32 - 1], the range of its 32-bit field.
  Cfg.Threads = TCfg.Threads = Threads;
  Cfg.TxnsPerThread = Opts.getInt("txns", Cfg.TxnsPerThread, 1, UINT32_MAX);
  Cfg.Vars = Opts.getInt("vars", Cfg.Vars, 1, UINT32_MAX);
  Cfg.MaxOpsPerTxn = Opts.getInt("ops", Cfg.MaxOpsPerTxn, 1, UINT32_MAX);
  TCfg.TxnsPerThread = Opts.getInt("txns", TCfg.TxnsPerThread, 1, UINT32_MAX);
  TCfg.OpsPerTxn = Opts.getInt("ops", TCfg.OpsPerTxn, 1, UINT32_MAX);
  TCfg.Keys = Opts.getInt("keys", TCfg.Keys, 1, UINT32_MAX);

  // A failing seed's repro line carries every option that shapes a run,
  // so the printed command re-runs the same plan under the same knobs.
  const bool Rmw = WorkloadName == "rmw";
  std::string Repro =
      "check_fuzz --workload=" + WorkloadName + " --backend=" + BackendName +
      " --shards=" + std::to_string(Cfg.ShardCount) +
      " --threads=" + std::to_string(Threads) + " --txns=" +
      std::to_string(Rmw ? Cfg.TxnsPerThread : TCfg.TxnsPerThread) +
      " --ops=" + std::to_string(Rmw ? Cfg.MaxOpsPerTxn : TCfg.OpsPerTxn) +
      (Rmw ? " --vars=" + std::to_string(Cfg.Vars)
           : " --keys=" + std::to_string(TCfg.Keys)) +
      " --perturb-shift=" + std::to_string(Cfg.PerturbShift);
  if (Cfg.Fault.SkipReadValidation)
    Repro += " --inject-skip-validation";
  if (Cfg.Fault.TornVersionPublish)
    Repro += " --inject-torn-publish";
  if (Cfg.Fault.SkipUndoReplay)
    Repro += " --inject-skip-undo";

  uint64_t First = SeedBase, Count = Iters;
  if (Opts.has("seed")) {
    First = Opts.getInt("seed", 1);
    Count = 1;
  }

  uint64_t Failures = 0, Attempts = 0, Commits = 0, Yields = 0;
  uint64_t CrossCommits = 0;
  auto Sweep = [&](const auto &WorkloadCfg) {
    for (uint64_t I = 0; I < Count; ++I) {
      const auto Seed = static_cast<unsigned long long>(First + I);
      DifferentialResult D = runDifferential(Seed, WorkloadCfg, Backends);
      for (const auto &[B, R] : D.PerBackend) {
        Attempts += R.Attempts;
        Commits += R.Committed;
        Yields += R.PerturbYields;
        CrossCommits += R.CrossShardCommits;
        if (Verbose || !R.passed())
          std::printf("seed %llu %-9s %s%s\n", Seed, fuzzBackendName(B),
                      R.passed() ? "ok" : "FAIL: ",
                      R.passed() ? "" : R.Error.c_str());
      }
      if (!D.passed()) {
        ++Failures;
        std::printf("FAIL seed %llu: %s\n  repro: %s --seed=%llu\n", Seed,
                    D.Error.c_str(), Repro.c_str(), Seed);
      }
    }
  };
  if (Rmw)
    Sweep(Cfg);
  else
    Sweep(TCfg);

  std::printf("check_fuzz: %llu seed(s), workload %s, backend %s: %llu "
              "failure(s); %llu attempts / %llu commits (%llu cross-shard), "
              "%llu injected yields\n",
              static_cast<unsigned long long>(Count), WorkloadName.c_str(),
              BackendName.c_str(), static_cast<unsigned long long>(Failures),
              static_cast<unsigned long long>(Attempts),
              static_cast<unsigned long long>(Commits),
              static_cast<unsigned long long>(CrossCommits),
              static_cast<unsigned long long>(Yields));
  return Failures > 125 ? 125 : static_cast<int>(Failures);
}
