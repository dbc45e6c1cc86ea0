//===- examples/quickstart.cpp - First steps with the GSTM library ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// The full pipeline on twenty lines of application code: a tiny bank of
// transactional accounts, profiled to build a thread-state-automaton
// model, analyzed, and re-run under guided execution. Exits 1 when the
// default or the guided run fails to conserve the bank's money.
//
//   $ ./quickstart [--threads=4] [--transfers=400]
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/Analyzer.h"
#include "core/GuideController.h"
#include "core/GuidedPolicy.h"
#include "core/Trace.h"
#include "engine/Tl2.h"
#include "stm/Perturb.h"
#include "stm/TVar.h"
#include "support/SplitMix64.h"

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

using namespace gstm;

namespace {

constexpr unsigned NumAccounts = 24;

/// The application: random transfers between accounts. Each transfer is
/// one transaction at site 0; an audit summing all balances is site 1.
void runBank(Tl2Stm &Stm, unsigned Threads, unsigned TransfersPerThread,
             std::vector<std::unique_ptr<TVar<int64_t>>> &Accounts) {
  // Seeded yields at one load or store in 32 interleave the transactions
  // on few cores.
  SchedulePerturber Yields(Threads, /*Seed=*/1, nullptr, /*YieldShift=*/5);
  Stm.setAccessObserver(&Yields);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Tl2Txn Txn(Stm, static_cast<ThreadId>(T));
      SplitMix64 Rng(T + 1);
      for (unsigned I = 0; I < TransfersPerThread; ++I) {
        unsigned From = Rng.nextBounded(NumAccounts);
        unsigned To = Rng.nextBounded(NumAccounts);
        int64_t Amount = static_cast<int64_t>(Rng.nextBounded(25));
        Txn.run(/*Tx=*/0, [&](Tl2Txn &Tx) {
          Tx.store(*Accounts[From], Tx.load(*Accounts[From]) - Amount);
          Tx.store(*Accounts[To], Tx.load(*Accounts[To]) + Amount);
        });
        if (I % 64 == 0) {
          int64_t Total = 0;
          Txn.run(/*Tx=*/1, [&](Tl2Txn &Tx) {
            Total = 0;
            for (auto &A : Accounts)
              Total += Tx.load(*A);
          });
          (void)Total;
        }
      }
    });
  for (auto &W : Workers)
    W.join();
  Stm.setAccessObserver(nullptr);
}

std::vector<std::unique_ptr<TVar<int64_t>>> makeAccounts() {
  std::vector<std::unique_ptr<TVar<int64_t>>> Accounts;
  for (unsigned I = 0; I < NumAccounts; ++I)
    Accounts.push_back(std::make_unique<TVar<int64_t>>(1000));
  return Accounts;
}

/// Transfers move money between accounts, never create or destroy it.
/// Prints the verdict for \p Run and returns whether the total held.
bool moneyConserved(
    const char *Run,
    const std::vector<std::unique_ptr<TVar<int64_t>>> &Accounts) {
  int64_t Total = 0;
  for (auto &A : Accounts)
    Total += A->loadDirect();
  bool Conserved = Total == int64_t{NumAccounts} * 1000;
  std::printf("      %s run money conserved: %s (total %ld)\n", Run,
              Conserved ? "yes" : "NO", Total);
  return Conserved;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Tool = toolName(Argv[0]);
  OptionSet Cli(Tool, "profiles, analyzes and guides a transactional bank",
                {{"threads", "N", "worker threads, in [1, 64] (default 4)"},
                 {"transfers", "N",
                  "transfers per thread, at least 1 (default 400)"}});
  Options Opts = Cli.parseOrExit(Argc, Argv);
  unsigned Threads = parseThreadCounts(Opts, Tool, "4").front();
  unsigned Transfers = Opts.getInt("transfers", 400, 1, UINT32_MAX);

  // ------------------------------------------------------------------
  // Phase 1: profile. The TraceCollector observes every commit/abort.
  // ------------------------------------------------------------------
  std::printf("[1/4] profiling %u runs...\n", 4u);
  Tsa Model;
  for (unsigned Run = 0; Run < 4; ++Run) {
    Tl2Stm Stm;
    TraceCollector Collector(Threads);
    Stm.setObserver(&Collector);
    auto Accounts = makeAccounts();
    runBank(Stm, Threads, Transfers, Accounts);
    Model.addRun(groupTuples(Collector.takeTrace(), Grouping::Sequence));
  }
  std::printf("      model: %zu states, %lu transitions\n",
              Model.numStates(), Model.numTransitions());

  // ------------------------------------------------------------------
  // Phase 2: analyze (paper Sec. IV).
  // ------------------------------------------------------------------
  AnalyzerReport Report = analyzeModel(Model);
  std::printf("[2/4] analyzer: guidance metric %.0f%% -> %s\n",
              Report.GuidanceMetricPercent,
              Report.Optimizable ? "worth guiding" : "not worth guiding");

  // ------------------------------------------------------------------
  // Phase 3: default run for comparison.
  // ------------------------------------------------------------------
  uint64_t DefaultAborts;
  bool Conserved = false;
  {
    Tl2Stm Stm;
    auto Accounts = makeAccounts();
    runBank(Stm, Threads, Transfers, Accounts);
    DefaultAborts = Stm.stats().aborts();
    std::printf("[3/4] default run: %lu commits, %lu aborts\n",
                Stm.stats().commits(), DefaultAborts);
    Conserved = moneyConserved("default", Accounts);
  }

  // ------------------------------------------------------------------
  // Phase 4: guided run (paper Sec. V).
  // ------------------------------------------------------------------
  {
    GuidedPolicy Policy(std::move(Model), /*Tfactor=*/4.0);
    GuideController Controller(Policy, GuideConfig{});
    Tl2Stm Stm;
    Stm.setObserver(&Controller);
    Stm.setGate(&Controller);
    auto Accounts = makeAccounts();
    runBank(Stm, Threads, Transfers, Accounts);

    GuideStats GS = Controller.stats();
    std::printf("[4/4] guided run:  %lu commits, %lu aborts "
                "(gate held %lu starts)\n",
                Stm.stats().commits(), Stm.stats().aborts(),
                GS.Holds);
    Conserved = moneyConserved("guided", Accounts) && Conserved;
    std::printf("      abort change: %lu -> %lu\n", DefaultAborts,
                Stm.stats().aborts());
  }
  return Conserved ? 0 : 1;
}
