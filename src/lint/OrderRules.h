//===- lint/OrderRules.h - Memory-ordering discipline pass ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-ordering discipline pass (DESIGN.md §4e): inventories every
/// std::atomic load/store/RMW and every atomic_thread_fence in the
/// scanned sources and checks them against lightweight protocol contracts
/// declared as comments at the declaration sites:
///
///   // stm-order: publish(NAME) requires release-fence-before
///       O1: a relaxed store whose receiver chain names NAME must be
///       dominated by a release (or stronger) fence on its path — the
///       single-fence commit publication idiom. Release/seq_cst stores
///       satisfy the contract on their own. A store to an uncontracted
///       location (the data the publish guards) ends the domination of
///       every fence before it: the fence must sit between the data
///       writes and the publish.
///
///   // stm-order: pair(NAME) acquire-load release-store
///       O2: loads of NAME must be acquire or stronger; stores must be
///       release or stronger (or relaxed behind a dominating release
///       fence, the fence-publication form).
///
///   // stm-order: fence(seq_cst) before(CALLEE) label(TEXT)
///       O3: inside the function containing the contract comment, the
///       next call to CALLEE after the comment must be dominated by a
///       seq_cst atomic_thread_fence issued at or after the contract
///       line. This pins the store-buffering fix from the single-fence
///       commit paths (commit 5343567): deleting the fence — or
///       weakening it — re-opens the two-committers-miss-each-other's-
///       locks window, and the contract comment that survives the
///       deletion flags it. A contract that binds no call is itself a
///       violation (the annotation drifted from the code).
///
/// publish()/pair() names are matched against the *receiver chain* of an
/// atomic operation — the identifiers reachable by walking the postfix
/// expression left of `.load(...)` / `.store(...)` (`S.lockTable()
/// .stripeAt(I).store(..)` has chain {stripeAt, lockTable, S}) — and are
/// global across the scanned file set, so a contract declared at
/// `LockTable::stripeAt` covers publishes in Tl2.h and OrecEager.h.
///
/// Domination is lexical: a stack of per-brace-depth fence states, so a
/// fence inside an `if` branch does not dominate code after the branch,
/// while a fence before a nested loop dominates the loop body. Compare-
/// exchange and fetch-op RMWs are inventoried but not checked (their
/// default seq_cst success order and CAS-retry shapes make relaxed forms
/// deliberate, reviewed choices). Lambda bodies inherit the enclosing
/// fence state — acceptable for this codebase, where commit-path fences
/// and publishes never straddle a lambda boundary.
///
/// Violations feed the same suppression (`// stm-lint: allow(O1) why`)
/// and text report as R1–R5.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LINT_ORDERRULES_H
#define GSTM_LINT_ORDERRULES_H

#include "lint/Rules.h"

#include <string>
#include <vector>

namespace gstm::lint {

/// Name-keyed contracts, global across the scanned file set.
struct OrderContracts {
  std::vector<std::string> Publish; ///< publish(NAME) → O1
  std::vector<std::string> Pair;    ///< pair(NAME) → O2
};

/// One fence(seq_cst) before(CALLEE) label(TEXT) contract, local to the
/// function body containing its comment.
struct FenceContract {
  uint32_t Line = 0;    ///< line of the stm-order comment
  std::string Callee;   ///< anchor: next call to this name binds
  std::string Label;    ///< protocol path name, quoted in diagnostics
  bool Bound = false;   ///< set once an anchor call has been checked
};

struct OrderStats {
  size_t AtomicOps = 0;  ///< loads + stores + RMWs seen
  size_t Fences = 0;     ///< atomic_thread_fence calls seen
  size_t Contracts = 0;  ///< stm-order contracts parsed
};

/// Parses every `stm-order:` comment of \p TS into \p Global
/// (publish/pair names) and \p Fences (fence contracts, to be bound
/// against the file's function bodies).
void parseOrderContracts(const TokenStream &TS, OrderContracts &Global,
                         std::vector<FenceContract> &Fences);

/// Walks tokens [Begin, End) — one function body — checking O1/O2
/// against \p Contracts and binding/checking any of \p Fences whose
/// contract line falls inside the body. Appends violations to \p Out
/// and inventory counts to \p Stats.
void checkOrder(const std::vector<Token> &Tokens, size_t Begin, size_t End,
                const OrderContracts &Contracts,
                std::vector<FenceContract> &Fences, OrderStats &Stats,
                std::vector<RawViolation> &Out);

} // namespace gstm::lint

#endif // GSTM_LINT_ORDERRULES_H
