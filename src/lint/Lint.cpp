//===- lint/Lint.cpp ------------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "lint/Lexer.h"
#include "lint/OrderRules.h"
#include "lint/Parser.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace gstm;
using namespace gstm::lint;

namespace {

//===----------------------------------------------------------------------===//
// Suppressions and expectation annotations (comment side channel)
//===----------------------------------------------------------------------===//

struct Suppression {
  uint32_t Line = 0;     ///< line of the stm-lint: comment itself
  uint32_t LastLine = 0; ///< last line of its consecutive comment block
  bool AllRules = false;
  std::vector<Rule> Rules;
  bool HasRationale = false;

  /// A suppression covers its own comment block (rationales may wrap onto
  /// continuation lines) plus the first line after it, and code sharing
  /// the comment's line.
  bool covers(uint32_t AtLine, Rule R) const {
    if (AtLine < Line || AtLine > LastLine + 1)
      return false;
    return AllRules || std::find(Rules.begin(), Rules.end(), R) != Rules.end();
  }
};

std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

/// Parses a comma-separated rule list inside "...(R1, R2)..." starting at
/// the '(' position \p Open. Returns the position past ')'.
size_t parseRuleList(std::string_view Text, size_t Open, bool &All,
                     std::vector<Rule> &Rules) {
  size_t Close = Text.find(')', Open);
  if (Close == std::string_view::npos)
    return Text.size();
  std::string_view Inner = Text.substr(Open + 1, Close - Open - 1);
  size_t Pos = 0;
  while (Pos <= Inner.size()) {
    size_t Comma = Inner.find(',', Pos);
    std::string_view Item =
        trim(Inner.substr(Pos, Comma == std::string_view::npos
                                   ? std::string_view::npos
                                   : Comma - Pos));
    if (Item == "all")
      All = true;
    else {
      Rule R;
      if (ruleFromId(Item, R))
        Rules.push_back(R);
    }
    if (Comma == std::string_view::npos)
      break;
    Pos = Comma + 1;
  }
  return Close + 1;
}

std::vector<Suppression> parseSuppressions(const TokenStream &TS) {
  std::vector<Suppression> Out;
  for (size_t I = 0; I < TS.Comments.size(); ++I) {
    const Comment &C = TS.Comments[I];
    size_t Key = C.Text.find("stm-lint:");
    if (Key == std::string_view::npos)
      continue;
    size_t Allow = C.Text.find("allow", Key);
    if (Allow == std::string_view::npos)
      continue;
    size_t Open = C.Text.find('(', Allow);
    if (Open == std::string_view::npos)
      continue;
    Suppression S;
    S.Line = C.Line;
    size_t After = parseRuleList(C.Text, Open, S.AllRules, S.Rules);
    S.HasRationale = !trim(C.Text.substr(After)).empty();
    // The rationale may wrap: extend through directly following comment
    // lines so the suppression still reaches the code underneath.
    S.LastLine = C.Line;
    for (size_t J = I + 1; J < TS.Comments.size(); ++J) {
      uint32_t L = TS.Comments[J].Line;
      if (L != S.LastLine && L != S.LastLine + 1)
        break;
      if (TS.Comments[J].Text.find("stm-lint:") != std::string_view::npos)
        break; // a new suppression takes over from its own line
      S.LastLine = L;
    }
    Out.push_back(S);
  }
  return Out;
}

struct Expectation {
  uint32_t Line = 0;
  Rule R = Rule::NakedAccess;
  bool Matched = false;
};

std::vector<Expectation> parseExpectations(const TokenStream &TS) {
  std::vector<Expectation> Out;
  for (const Comment &C : TS.Comments) {
    size_t Pos = 0;
    while ((Pos = C.Text.find("expect-diag", Pos)) !=
           std::string_view::npos) {
      size_t Open = C.Text.find('(', Pos);
      if (Open == std::string_view::npos)
        break;
      bool All = false;
      std::vector<Rule> Rules;
      Pos = parseRuleList(C.Text, Open, All, Rules);
      for (Rule R : Rules)
        Out.push_back({C.Line, R, false});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-file analysis unit
//===----------------------------------------------------------------------===//

struct FileUnit {
  const SourceFile *Src = nullptr;
  TokenStream TS;
  ParsedFile PF;
  std::vector<Suppression> Sups;
  /// Token ranges of txn lambdas, excluded when scanning any enclosing
  /// range (they are their own regions).
  SkipRanges LambdaRanges;
  /// This file's fence(seq_cst) contracts, bound during the order pass.
  std::vector<FenceContract> Fences;
  /// O1/O2/O3 violations found by the order pass, pre-suppression.
  std::vector<RawViolation> OrderViolations;
};

/// A scanned body: a function (possibly transactional context) or a txn
/// lambda.
struct ScannedBody {
  size_t File = 0;
  /// Index into PF.Functions, or SIZE_MAX for a lambda body.
  size_t FnIndex = SIZE_MAX;
  size_t LambdaIndex = SIZE_MAX;
  std::string_view Name;   ///< function name; lambdas use the enclosing fn
  std::string ClassName;   ///< enclosing class for methods ("" otherwise)
  bool IsMethod = false;
  bool IsTxnContext = false; ///< reports diagnostics directly
  bool IsDriver = false;     ///< takes a handle but only calls .run() on it
  /// R1 and R5 are off (isEngineInternalHandle of the handle type).
  bool EngineInternal = false;
  uint32_t Line = 0;
  ScanResult Scan;
  /// R5 state (plain bodies only): why this body is transaction-unsafe.
  bool Unsafe = false;
  Rule UnsafeRoot = Rule::Irrevocable;
  std::string UnsafeWhy; ///< "performs X at file:line" / "calls 'g' ..."
};

/// True when the body's token range contains `Handle . run (` — the
/// parameter is a transaction *descriptor* being driven, not an open
/// transactional context (e.g. VacationWorkload::doReserve).
/// Class qualifier of a method's qualified name ("" for free functions).
std::string classOf(const FunctionDef &FD) {
  if (!FD.IsMethod)
    return {};
  size_t Sep = FD.Qualified.rfind("::");
  return Sep == std::string::npos ? std::string() : FD.Qualified.substr(0, Sep);
}

bool callsRunOnHandle(const ScanResult &Scan) {
  for (const CallSite &C : Scan.Calls)
    if (C.ReceiverIsHandle && C.Name == "run")
      return true;
  return false;
}

class Analysis {
public:
  explicit Analysis(const std::vector<SourceFile> &Files) : Files(Files) {}

  LintResult run() {
    for (const SourceFile &SF : Files)
      parseFile(SF);
    scanBodies();
    propagateUnsafe();
    orderPass();
    emitDiagnostics();
    finish();
    return std::move(Result);
  }

private:
  void parseFile(const SourceFile &SF) {
    FileUnit U;
    U.Src = &SF;
    U.TS = lex(SF.Text);
    U.PF = parse(U.TS);
    U.Sups = parseSuppressions(U.TS);
    for (const TxnLambda &L : U.PF.TxnLambdas)
      U.LambdaRanges.push_back({L.BodyBegin, L.BodyEnd});
    Units.push_back(std::move(U));
  }

  void scanBodies() {
    for (size_t F = 0; F < Units.size(); ++F) {
      FileUnit &U = Units[F];
      for (size_t I = 0; I < U.PF.Functions.size(); ++I) {
        const FunctionDef &FD = U.PF.Functions[I];
        ScannedBody B;
        B.File = F;
        B.FnIndex = I;
        B.Name = FD.Name;
        B.ClassName = classOf(FD);
        B.IsMethod = FD.IsMethod;
        B.Line = FD.Line;
        B.EngineInternal = isEngineInternalHandle(FD.HandleType);
        B.Scan = scanRange(U.TS.Tokens, FD.BodyBegin, FD.BodyEnd,
                           FD.Handle, B.EngineInternal, U.LambdaRanges);
        if (FD.HasTxnParam) {
          B.IsDriver = callsRunOnHandle(B.Scan);
          B.IsTxnContext = !B.IsDriver;
        }
        Bodies.push_back(std::move(B));
      }
      for (size_t I = 0; I < U.PF.TxnLambdas.size(); ++I) {
        const TxnLambda &L = U.PF.TxnLambdas[I];
        ScannedBody B;
        B.File = F;
        B.LambdaIndex = I;
        B.Line = L.Line;
        if (L.EnclosingFunction != SIZE_MAX) {
          // Unqualified calls in the lambda bind like the enclosing
          // member function's would.
          B.Name = U.PF.Functions[L.EnclosingFunction].Name;
          B.ClassName = classOf(U.PF.Functions[L.EnclosingFunction]);
        }
        B.EngineInternal = isEngineInternalHandle(L.HandleType);
        B.Scan = scanRange(U.TS.Tokens, L.BodyBegin, L.BodyEnd, L.Handle,
                           B.EngineInternal, U.LambdaRanges);
        B.IsTxnContext = !callsRunOnHandle(B.Scan);
        Bodies.push_back(std::move(B));
      }
      Result.Stats.Functions += U.PF.Functions.size();
    }
    // Name -> plain bodies, for R5 resolution. Transactional-context
    // bodies are excluded: they are checked at their own definition.
    for (size_t I = 0; I < Bodies.size(); ++I) {
      const ScannedBody &B = Bodies[I];
      if (B.FnIndex == SIZE_MAX || B.IsTxnContext || B.IsDriver)
        continue;
      if (B.Name == "main" || B.Name == "TEST" || B.Name == "TEST_F")
        continue;
      PlainByName[std::string(B.Name)].push_back(I);
    }
  }

  /// Unsuppressed would-be violations of a body.
  std::vector<const RawViolation *>
  activeViolations(const ScannedBody &B) {
    std::vector<const RawViolation *> Out;
    for (const RawViolation &V : B.Scan.Violations)
      if (!isSuppressed(B.File, V.Line, V.R, /*Count=*/false))
        Out.push_back(&V);
    return Out;
  }

  bool isSuppressed(size_t File, uint32_t Line, Rule R, bool Count) {
    for (const Suppression &S : Units[File].Sups) {
      if (S.covers(Line, R)) {
        if (Count)
          ++Result.Stats.Suppressed;
        return true;
      }
    }
    return false;
  }

  /// Fixpoint: a plain body is transaction-unsafe when it has active
  /// violations or calls (by name) another unsafe plain body.
  void propagateUnsafe() {
    for (ScannedBody &B : Bodies) {
      if (B.IsTxnContext)
        continue;
      auto Active = activeViolations(B);
      if (!Active.empty()) {
        B.Unsafe = true;
        B.UnsafeRoot = Active.front()->R;
        B.UnsafeWhy = Active.front()->Message + " (" +
                      Units[B.File].Src->Path + ":" +
                      std::to_string(Active.front()->Line) + ")";
      }
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (ScannedBody &B : Bodies) {
        if (B.Unsafe || B.IsTxnContext)
          continue;
        for (const CallSite &C : B.Scan.Calls) {
          const ScannedBody *Callee = resolveUnsafe(C, B.ClassName);
          if (!Callee)
            continue;
          B.Unsafe = true;
          B.UnsafeRoot = Callee->UnsafeRoot;
          B.UnsafeWhy = "calls '" + std::string(C.Name) + "', which is " +
                        Callee->UnsafeWhy;
          Changed = true;
          break;
        }
      }
    }
  }

  /// Resolves a call site to an unsafe plain body, or nullptr. Method
  /// calls only match methods; free calls match anything (unqualified
  /// member calls look free inside a class). Unqualified calls from
  /// within a method bind to that class's own members first — only when
  /// the class has no member with the name does the match widen, which
  /// keeps `next()` in SplitMix64 from resolving to every other `next`
  /// in the tree.
  const ScannedBody *resolveUnsafe(const CallSite &C,
                                   const std::string &CallerClass) const {
    if (C.ReceiverIsHandle || C.HandlePassed)
      return nullptr;
    auto It = PlainByName.find(std::string(C.Name));
    if (It == PlainByName.end())
      return nullptr;
    if (!C.MethodStyle && !CallerClass.empty()) {
      bool SameClass = false;
      const ScannedBody *SameClassUnsafe = nullptr;
      for (size_t I : It->second) {
        const ScannedBody &B = Bodies[I];
        if (B.ClassName != CallerClass)
          continue;
        SameClass = true;
        if (B.Unsafe && !SameClassUnsafe)
          SameClassUnsafe = &B;
      }
      if (SameClass)
        return SameClassUnsafe;
    }
    for (size_t I : It->second) {
      const ScannedBody &B = Bodies[I];
      if (C.MethodStyle && !B.IsMethod)
        continue;
      if (B.Unsafe)
        return &B;
    }
    return nullptr;
  }

  /// Memory-ordering discipline (lint/OrderRules.h): contracts are
  /// global across the file set (a publish() declared at the LockTable
  /// covers the commit paths in Tl2.h and OrecEager.h); fence
  /// contracts bind inside their own function body. Every function body
  /// is walked — commit paths are plain methods, not transaction
  /// regions — plus lambdas outside any function.
  void orderPass() {
    OrderContracts Contracts;
    for (FileUnit &U : Units)
      parseOrderContracts(U.TS, Contracts, U.Fences);
    OrderStats OS;
    for (FileUnit &U : Units) {
      Result.Stats.OrderContracts += U.Fences.size();
      for (const FunctionDef &FD : U.PF.Functions)
        checkOrder(U.TS.Tokens, FD.BodyBegin, FD.BodyEnd, Contracts,
                   U.Fences, OS, U.OrderViolations);
      for (const TxnLambda &L : U.PF.TxnLambdas)
        if (L.EnclosingFunction == SIZE_MAX)
          checkOrder(U.TS.Tokens, L.BodyBegin, L.BodyEnd, Contracts,
                     U.Fences, OS, U.OrderViolations);
      for (const FenceContract &FC : U.Fences)
        if (!FC.Bound)
          U.OrderViolations.push_back(
              {Rule::FenceContract, FC.Line,
               "stm-order fence contract '" + FC.Label +
                   "' binds no call to '" + FC.Callee +
                   "' in its function — the annotation drifted from "
                   "the code"});
    }
    Result.Stats.OrderContracts +=
        Contracts.Publish.size() + Contracts.Pair.size();
    Result.Stats.AtomicOps = OS.AtomicOps;
    Result.Stats.Fences = OS.Fences;
  }

  void emitDiagnostics() {
    for (const ScannedBody &B : Bodies) {
      if (!B.IsTxnContext)
        continue;
      ++Result.Stats.Regions;
      const std::string &Path = Units[B.File].Src->Path;
      for (const RawViolation &V : B.Scan.Violations) {
        if (isSuppressed(B.File, V.Line, V.R, /*Count=*/true))
          continue;
        Result.Diags.push_back({Path, V.Line, V.R, V.Message});
      }
      if (B.EngineInternal)
        continue;
      for (const CallSite &C : B.Scan.Calls) {
        const ScannedBody *Callee = resolveUnsafe(C, B.ClassName);
        if (!Callee)
          continue;
        if (isSuppressed(B.File, C.Line, Rule::UnsafeCallee, /*Count=*/true))
          continue;
        Result.Diags.push_back(
            {Path, C.Line, Rule::UnsafeCallee,
             "call to transaction-unsafe '" + std::string(C.Name) +
                 "' [" + std::string(ruleId(Callee->UnsafeRoot)) +
                 "]: " + Callee->UnsafeWhy});
      }
    }
    // O1/O2/O3: per-file order-pass violations (not tied to regions).
    for (size_t F = 0; F < Units.size(); ++F)
      for (const RawViolation &V : Units[F].OrderViolations) {
        if (isSuppressed(F, V.Line, V.R, /*Count=*/true))
          continue;
        Result.Diags.push_back(
            {Units[F].Src->Path, V.Line, V.R, V.Message});
      }
    // S1: every suppression must carry a rationale.
    for (size_t F = 0; F < Units.size(); ++F)
      for (const Suppression &S : Units[F].Sups)
        if (!S.HasRationale)
          Result.Diags.push_back(
              {Units[F].Src->Path, S.Line, Rule::BadSuppression,
               "stm-lint suppression without a rationale; say why the "
               "operation is transaction-safe"});
  }

  void finish() {
    Result.Stats.Files = Units.size();
    std::sort(Result.Diags.begin(), Result.Diags.end(),
              [](const Diag &A, const Diag &B) {
                if (A.File != B.File)
                  return A.File < B.File;
                if (A.Line != B.Line)
                  return A.Line < B.Line;
                return static_cast<int>(A.R) < static_cast<int>(B.R);
              });
    // Identical (file, line, rule, message) duplicates can arise when a
    // line trips the same rule twice; keep the first.
    Result.Diags.erase(
        std::unique(Result.Diags.begin(), Result.Diags.end(),
                    [](const Diag &A, const Diag &B) {
                      return A.File == B.File && A.Line == B.Line &&
                             A.R == B.R && A.Message == B.Message;
                    }),
        Result.Diags.end());
  }

  const std::vector<SourceFile> &Files;
  std::vector<FileUnit> Units;
  std::vector<ScannedBody> Bodies;
  std::unordered_map<std::string, std::vector<size_t>> PlainByName;
  LintResult Result;
};

} // namespace

LintResult gstm::lint::lintSources(const std::vector<SourceFile> &Files) {
  return Analysis(Files).run();
}

//===----------------------------------------------------------------------===//
// File collection
//===----------------------------------------------------------------------===//

namespace {

bool isLintableFile(const std::filesystem::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".cpp" || Ext == ".cc" || Ext == ".h" || Ext == ".hpp";
}

bool isSkippedDir(const std::filesystem::path &P) {
  std::string Name = P.filename().string();
  return Name.rfind("build", 0) == 0 || Name.rfind(".", 0) == 0 ||
         Name == "lint_fixtures";
}

bool readFile(const std::filesystem::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

bool gstm::lint::collectSources(const std::string &Root,
                                const std::vector<std::string> &Paths,
                                std::vector<SourceFile> &Out,
                                std::string &Error) {
  namespace fs = std::filesystem;
  for (const std::string &P : Paths) {
    fs::path Abs = fs::path(P).is_absolute() ? fs::path(P)
                                             : fs::path(Root) / P;
    std::error_code EC;
    if (fs::is_directory(Abs, EC)) {
      std::vector<fs::path> Found;
      for (fs::recursive_directory_iterator
               It(Abs, fs::directory_options::skip_permission_denied, EC),
           End;
           It != End; It.increment(EC)) {
        if (EC) {
          Error = "cannot walk '" + Abs.string() + "': " + EC.message();
          return false;
        }
        if (It->is_directory() && isSkippedDir(It->path())) {
          It.disable_recursion_pending();
          continue;
        }
        if (It->is_regular_file() && isLintableFile(It->path()))
          Found.push_back(It->path());
      }
      std::sort(Found.begin(), Found.end());
      for (const fs::path &F : Found) {
        SourceFile SF;
        SF.Path = fs::relative(F, Root, EC).string();
        if (SF.Path.empty())
          SF.Path = F.string();
        if (!readFile(F, SF.Text)) {
          Error = "cannot read '" + F.string() + "'";
          return false;
        }
        Out.push_back(std::move(SF));
      }
    } else if (fs::is_regular_file(Abs, EC)) {
      SourceFile SF;
      SF.Path = P;
      if (!readFile(Abs, SF.Text)) {
        Error = "cannot read '" + Abs.string() + "'";
        return false;
      }
      Out.push_back(std::move(SF));
    } else {
      Error = "no such file or directory: '" + Abs.string() + "'";
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string gstm::lint::toText(const LintResult &R) {
  std::ostringstream Out;
  for (const Diag &D : R.Diags)
    Out << D.File << ":" << D.Line << ": [" << ruleId(D.R) << "] "
        << D.Message << "\n  hint: " << ruleHint(D.R) << "\n";
  Out << "stm_lint: " << R.Stats.Files << " file(s), "
      << R.Stats.Functions << " function(s), " << R.Stats.Regions
      << " transaction region(s), " << R.Stats.AtomicOps
      << " atomic op(s), " << R.Stats.Fences << " fence(s), "
      << R.Stats.OrderContracts << " order contract(s): "
      << R.Diags.size() << " diagnostic(s), " << R.Stats.Suppressed
      << " suppressed\n";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Fixture expectation checking
//===----------------------------------------------------------------------===//

ExpectOutcome
gstm::lint::checkExpectations(const std::vector<SourceFile> &Files) {
  ExpectOutcome Out;
  for (const SourceFile &SF : Files) {
    TokenStream TS = lex(SF.Text);
    std::vector<Expectation> Expected = parseExpectations(TS);
    Out.Expected += Expected.size();

    std::vector<SourceFile> One{SF};
    LintResult R = lintSources(One);

    for (const Diag &D : R.Diags) {
      bool Matched = false;
      for (Expectation &E : Expected) {
        if (!E.Matched && E.Line == D.Line && E.R == D.R) {
          E.Matched = true;
          Matched = true;
          ++Out.Matched;
          break;
        }
      }
      if (!Matched)
        Out.Failures.push_back("unexpected diagnostic " + SF.Path + ":" +
                               std::to_string(D.Line) + " [" +
                               ruleId(D.R) + "] " + D.Message);
    }
    for (const Expectation &E : Expected)
      if (!E.Matched)
        Out.Failures.push_back(
            "missed expectation " + SF.Path + ":" +
            std::to_string(E.Line) + " [" + ruleId(E.R) +
            "]: rule did not fire");
  }
  return Out;
}
