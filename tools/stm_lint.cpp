//===- tools/stm_lint.cpp - Transaction-safety static analyzer ------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Static lint of transaction bodies and memory-ordering discipline
// (src/lint/, DESIGN.md §4e):
//
//   stm_lint [--root=DIR] [--quiet] [paths...]  # lint sources (default:
//                                               # src tests tools bench
//                                               # examples under --root)
//   stm_lint --expect [paths...]                # fixture self-check:
//                                               # expect-diag annotations
//                                               # must match exactly
//   stm_lint --rules                            # print the rule table
//
// The report is text: one "file:line: [Rx] message" entry per diagnostic
// and a summary line. A deliberate exception is an inline
// `// stm-lint: allow(<rule>) <rationale>` at the flagged line.
//
// Exit status: 0 clean / all expectations matched, 1 diagnostics found or
// expectations mismatched, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "support/Options.h"

#include <cstdio>

using namespace gstm;
using namespace gstm::lint;

static int printRules() {
  std::printf("%-4s %s\n", "id", "rule");
  const struct {
    Rule R;
    const char *Summary;
  } Table[] = {
      {Rule::NakedAccess,
       "naked shared access (atomic/TVar/TObj bypassing the txn handle)"},
      {Rule::Irrevocable,
       "irrevocable operation (heap outside TmPool, I/O, sleep, mutex)"},
      {Rule::NonDeterminism,
       "non-determinism source (rand, random_device, clock reads)"},
      {Rule::HandleEscape,
       "transaction handle (or a reference alias of it) stored or "
       "captured beyond the body"},
      {Rule::UnsafeCallee,
       "call into a function that transitively trips R1-R4"},
      {Rule::BadSuppression,
       "stm-lint: allow(...) suppression without a rationale"},
      {Rule::TornPublish,
       "relaxed store to a publish(NAME) location with no dominating "
       "release fence"},
      {Rule::AcquireRelease,
       "pair(NAME) location loaded without acquire or stored without "
       "release (and no dominating release fence)"},
      {Rule::FenceContract,
       "fence(seq_cst) before(CALLEE) contract violated: anchor call "
       "not dominated by a seq_cst fence, or contract binds no call"},
  };
  for (const auto &E : Table)
    std::printf("%-4s %s\n       hint: %s\n", ruleId(E.R), E.Summary,
                ruleHint(E.R));
  return 0;
}

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "stm_lint",
      "transaction-safety static analyzer for STM transaction bodies",
      {
          {"root", "DIR", "resolve relative paths against DIR (default .)"},
          {"expect", "",
           "fixture mode: match expect-diag(<rule>) annotations"},
          {"quiet", "", "print nothing on a clean run"},
          {"rules", "", "print the rule table and exit"},
      },
      "[paths...]");
  Options Opts = Cli.parseOrExit(Argc, Argv);

  if (Opts.getBool("rules", false))
    return printRules();

  const std::string Root = Opts.getString("root", ".");
  std::vector<std::string> Paths = Opts.positionals();
  if (Paths.empty())
    Paths = {"src", "tests", "tools", "bench", "examples"};

  std::vector<SourceFile> Files;
  std::string Error;
  if (!collectSources(Root, Paths, Files, Error)) {
    std::fprintf(stderr, "stm_lint: %s\n", Error.c_str());
    return 2;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "stm_lint: no lintable sources found\n");
    return 2;
  }

  if (Opts.getBool("expect", false)) {
    ExpectOutcome E = checkExpectations(Files);
    for (const std::string &F : E.Failures)
      std::printf("FAIL: %s\n", F.c_str());
    std::printf("stm_lint --expect: %zu file(s), %zu expectation(s), "
                "%zu matched, %zu failure(s)\n",
                Files.size(), E.Expected, E.Matched, E.Failures.size());
    return E.ok() ? 0 : 1;
  }

  LintResult R = lintSources(Files);
  if (!R.clean() || !Opts.getBool("quiet", false))
    std::fputs(toText(R).c_str(), stdout);
  return R.clean() ? 0 : 1;
}
