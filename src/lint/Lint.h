//===- lint/Lint.h - Transaction-safety analysis driver ------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stm_lint analysis pipeline (see DESIGN.md §4e):
///
///   1. lex + structurally parse every source file (lint/Lexer.h,
///      lint/Parser.h);
///   2. scan every function body for would-be violations and call sites
///      (lint/Rules.h); transaction bodies (run-lambdas and functions
///      taking a txn handle) report violations directly;
///   3. propagate "transaction-unsafe" over the call graph to a fixpoint,
///      so a body calling a helper that (transitively) allocates or does
///      I/O is flagged at the call site (R5);
///   4. run the memory-ordering discipline pass (lint/OrderRules.h) over
///      every function body against the file set's `stm-order:`
///      contracts (O1–O3);
///   5. apply `// stm-lint: allow(<rule>) <reason>` suppressions (same
///      line, or a comment block directly above the flagged line — the
///      rationale may wrap; a missing reason is itself S1).
///
/// The result renders as text only (toText). A deliberate exception is
/// an inline allow() with its rationale; there is no waiver file.
///
/// Also implements the fixture self-check mode: `// expect-diag(<rule>)`
/// annotations must match produced diagnostics exactly, line by line.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LINT_LINT_H
#define GSTM_LINT_LINT_H

#include "lint/Rules.h"

#include <string>
#include <vector>

namespace gstm::lint {

/// One source file handed to the analysis. Text must stay alive for the
/// duration of the lint (tokens view into it); lintSources owns its copy.
struct SourceFile {
  std::string Path;
  std::string Text;
};

/// A reported diagnostic.
struct Diag {
  std::string File;
  uint32_t Line = 0;
  Rule R = Rule::NakedAccess;
  std::string Message;
};

struct LintStats {
  size_t Files = 0;
  size_t Functions = 0;
  size_t Regions = 0;        ///< transaction bodies analyzed
  size_t Suppressed = 0;     ///< diagnostics silenced by allow() comments
  size_t AtomicOps = 0;      ///< atomic loads/stores/RMWs inventoried
  size_t Fences = 0;         ///< atomic_thread_fence calls inventoried
  size_t OrderContracts = 0; ///< stm-order contracts parsed
};

struct LintResult {
  std::vector<Diag> Diags; ///< sorted by (file, line, rule)
  LintStats Stats;

  bool clean() const { return Diags.empty(); }
};

/// Runs the full pipeline over \p Files (one shared call graph).
LintResult lintSources(const std::vector<SourceFile> &Files);

/// Collects lintable sources (.h/.hpp/.cpp/.cc) under each of \p Paths
/// (files or directories, resolved against \p Root when relative).
/// Directories named "build*", hidden directories, and the lint fixture
/// corpus are skipped. Returns false (with \p Error set) when a path
/// does not exist or a file cannot be read.
bool collectSources(const std::string &Root,
                    const std::vector<std::string> &Paths,
                    std::vector<SourceFile> &Out, std::string &Error);

/// Renders diagnostics as "file:line: [Rx] message" lines plus a summary.
std::string toText(const LintResult &R);

/// Fixture self-check: every `// expect-diag(<rule>)` annotation in
/// \p Files must be matched by a diagnostic on the same line, and every
/// diagnostic must be annotated. Each file is linted in isolation so
/// fixtures cannot contaminate each other's call graphs.
struct ExpectOutcome {
  size_t Expected = 0;
  size_t Matched = 0;
  std::vector<std::string> Failures; ///< human-readable mismatch lines

  bool ok() const { return Failures.empty(); }
};
ExpectOutcome checkExpectations(const std::vector<SourceFile> &Files);

} // namespace gstm::lint

#endif // GSTM_LINT_LINT_H
