//===- lint/Parser.h - Function / region extraction for stm_lint ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight structural pass over the token stream that recovers what
/// the transaction-safety rules need — no AST, no types, no template
/// instantiation:
///
///  * every function definition (free, member, out-of-class), with its
///    body token range, qualified name, and whether it takes a
///    transactional-handle parameter (`Tl2Txn &` / `LibTxn &`, pointer
///    forms included) — such a function body is
///    transactional context propagated over the call graph;
///  * every lambda whose parameter list declares a transactional handle
///    (the `Txn.run(tx, [&](Tl2Txn &Tx) {...})` bodies), with its body
///    token range.
///
/// The parser tracks namespace/class/function brace nesting so inline
/// member definitions in headers are attributed to their class, and
/// constructor member-initializer braces are not mistaken for bodies.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LINT_PARSER_H
#define GSTM_LINT_PARSER_H

#include "lint/Lexer.h"

#include <string>
#include <vector>

namespace gstm::lint {

/// One function definition. Body range [BodyBegin, BodyEnd) indexes the
/// token stream and excludes the outer braces.
struct FunctionDef {
  std::string Qualified;    ///< e.g. "TmRbTree::rotateLeft" or "main"
  std::string_view Name;    ///< last component
  bool IsMethod = false;    ///< defined inside a class/struct, or
                            ///< out-of-class with a Class:: qualifier
  bool HasTxnParam = false; ///< takes a Tl2Txn&/LibTxn& style parameter
  std::string_view Handle;  ///< the handle parameter's name, if any
  /// The handle parameter's type name ("Tl2Txn", "OrecEagerTxn", ...; a
  /// template-parameter name like "TxnT" for the policy statics).
  /// Decides whether the body is engine-internal (lint/Rules.h).
  std::string_view HandleType;
  uint32_t Line = 0;        ///< line of the function name
  size_t BodyBegin = 0;
  size_t BodyEnd = 0;
};

/// One lambda with a transactional-handle parameter (a transaction body).
struct TxnLambda {
  std::string_view Handle;
  std::string_view HandleType;
  uint32_t Line = 0; ///< line of the '[' introducer
  size_t BodyBegin = 0;
  size_t BodyEnd = 0;
  /// Index into ParsedFile::Functions of the enclosing function, or
  /// SIZE_MAX when the lambda sits in a non-function scope (e.g. a
  /// namespace-scope initializer).
  size_t EnclosingFunction = SIZE_MAX;
};

/// Structural parse of one file's token stream. Views point into the
/// stream's source buffer.
struct ParsedFile {
  std::vector<FunctionDef> Functions;
  std::vector<TxnLambda> TxnLambdas;
};

/// Names accepted as transactional-handle types. Template-parameter
/// names containing "Txn" (the `template <typename TxnT> static` policy
/// statics in src/engine) are additionally accepted per declaration; see
/// the parser's template-group scan.
bool isTxnHandleType(std::string_view TypeName);

/// Runs the structural pass over \p TS.
ParsedFile parse(const TokenStream &TS);

} // namespace gstm::lint

#endif // GSTM_LINT_PARSER_H
