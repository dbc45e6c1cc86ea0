//===- lint/Rules.h - Transaction-safety rules for stm_lint --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule set enforced inside transaction bodies (see DESIGN.md §4e):
///
///   R1 naked shared access   — std::atomic / TVar / TObj accessed
///                              without going through the txn handle
///   R2 irrevocable operation — heap allocation outside TmPool, I/O,
///                              sleep, mutex use: cannot be undone when
///                              the attempt aborts and re-executes
///   R3 non-determinism       — rand/random_device/clock reads: attempts
///                              re-execute, so results diverge and TSA
///                              replay breaks
///   R4 handle escape         — storing/capturing the Tl2Txn&/LibTxn&
///                              beyond the transaction body (directly or
///                              through a tracked `auto &Alias = Tx;`)
///   R5 unsafe callee         — calling a function that (transitively)
///                              trips R1–R4, without passing the handle
///   S1 bad suppression      — `// stm-lint: allow(...)` without a
///                              rationale
///
/// and the memory-ordering discipline rules checked against `stm-order:`
/// contracts (lint/OrderRules.h):
///
///   O1 torn publish          — relaxed store to a publish()-contracted
///                              variable with no dominating release fence
///   O2 pairing violation     — relaxed access to a pair()-contracted
///                              acquire-load/release-store variable
///   O3 fence contract        — a fence(seq_cst) before(callee) contract
///                              whose anchor call is not dominated by a
///                              seq_cst fence (the 5343567 store-buffering
///                              fix, kept restored by construction)
///
/// R1 and R5 are off in engine-internal bodies: policy statics whose
/// handle type is a template parameter (isEngineInternalHandle).
///
/// scanRange() performs the statement-level detection of R1–R4 and
/// records the call sites the analysis layer resolves for R5.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LINT_RULES_H
#define GSTM_LINT_RULES_H

#include "lint/Lexer.h"

#include <string>
#include <vector>

namespace gstm::lint {

enum class Rule : uint8_t {
  NakedAccess,    // R1
  Irrevocable,    // R2
  NonDeterminism, // R3
  HandleEscape,   // R4
  UnsafeCallee,   // R5
  BadSuppression, // S1
  TornPublish,    // O1
  AcquireRelease, // O2
  FenceContract,  // O3
};

/// Stable diagnostic id ("R1".."R5", "S1", "O1".."O3").
const char *ruleId(Rule R);

/// One-line fix hint shown with every diagnostic of the rule.
const char *ruleHint(Rule R);

/// Parses "R1" etc.; returns false for unknown ids.
bool ruleFromId(std::string_view Id, Rule &Out);

/// True when \p HandleType names a template parameter (e.g. `TxnT` in
/// the policy statics) rather than one of the engine handles (Tl2Txn,
/// ShardedTxn, LibTxn, OrecEagerTxn, Txn, EngineTxn), the tmds insert
/// path's TxnOrDirect, or no handle. Such a body *is* the engine: raw
/// atomics and calls into the runtime machinery
/// (clock advance, commit-ring record, stripe words) are the point, and
/// the ordering pass owns their discipline, so R1 and R5 are off there.
/// R2–R4 still apply: engines must not allocate, block, or stash handles.
bool isEngineInternalHandle(std::string_view HandleType);

/// A rule violation found by the token scan, before suppression
/// processing and call-graph resolution.
struct RawViolation {
  Rule R;
  uint32_t Line = 0;
  std::string Message;
};

/// A call site recorded for R5 resolution.
struct CallSite {
  std::string_view Name;
  uint32_t Line = 0;
  /// Receiver identifier for `Recv.name(...)` / `Recv->name(...)`, empty
  /// for free or chained calls.
  std::string_view Receiver;
  /// The call's receiver is the transaction handle (sanctioned STM API).
  bool ReceiverIsHandle = false;
  /// The handle is forwarded as an argument: transactional context
  /// propagates and the callee is checked at its own definition.
  bool HandlePassed = false;
  /// The call was method-style (had a '.'/'->' receiver).
  bool MethodStyle = false;
};

struct ScanResult {
  std::vector<RawViolation> Violations;
  std::vector<CallSite> Calls;
};

/// Token sub-ranges to skip while scanning (nested transaction lambdas,
/// which are analyzed as their own regions).
using SkipRanges = std::vector<std::pair<size_t, size_t>>;

/// Scans tokens [Begin, End) as transactional context with handle name
/// \p Handle (empty when scanning a plain function for its would-be
/// violations — then every atomic access is naked by definition). R1 is
/// not checked when \p EngineInternal is set.
ScanResult scanRange(const std::vector<Token> &Tokens, size_t Begin,
                     size_t End, std::string_view Handle,
                     bool EngineInternal, const SkipRanges &Skip);

} // namespace gstm::lint

#endif // GSTM_LINT_RULES_H
