//===- lint/OrderRules.cpp ------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "lint/OrderRules.h"

#include <algorithm>
#include <cctype>

using namespace gstm;
using namespace gstm::lint;

namespace {

std::string_view trimWs(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

/// Returns the trimmed contents of the first "keyword(...)" group at or
/// after \p From, or empty when absent. \p End receives the position
/// past the closing ')'.
std::string_view parenArg(std::string_view Text, std::string_view Keyword,
                          size_t From, size_t &End) {
  End = From;
  size_t Key = Text.find(Keyword, From);
  if (Key == std::string_view::npos)
    return {};
  size_t Open = Key + Keyword.size();
  while (Open < Text.size() &&
         std::isspace(static_cast<unsigned char>(Text[Open])))
    ++Open;
  if (Open >= Text.size() || Text[Open] != '(')
    return {};
  size_t Close = Text.find(')', Open);
  if (Close == std::string_view::npos)
    return {};
  End = Close + 1;
  return trimWs(Text.substr(Open + 1, Close - Open - 1));
}

enum class MemOrder : uint8_t {
  Default, // no memory_order argument: seq_cst
  Relaxed,
  Consume,
  Acquire,
  Release,
  AcqRel,
  SeqCst,
};

MemOrder orderFromIdent(std::string_view N) {
  if (N == "memory_order_relaxed")
    return MemOrder::Relaxed;
  if (N == "memory_order_consume")
    return MemOrder::Consume;
  if (N == "memory_order_acquire")
    return MemOrder::Acquire;
  if (N == "memory_order_release")
    return MemOrder::Release;
  if (N == "memory_order_acq_rel")
    return MemOrder::AcqRel;
  if (N == "memory_order_seq_cst")
    return MemOrder::SeqCst;
  return MemOrder::Default;
}

bool isAtomicLoad(std::string_view N) { return N == "load"; }
bool isAtomicStore(std::string_view N) { return N == "store"; }
bool isAtomicRmw(std::string_view N) {
  static constexpr std::string_view Rmw[] = {
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "test_and_set",  "compare_exchange_weak",
      "compare_exchange_strong"};
  return std::find(std::begin(Rmw), std::end(Rmw), N) != std::end(Rmw);
}

/// Fence knowledge at one brace depth. Entering a block inherits the
/// parent's state; leaving it discards whatever the block established —
/// a fence inside an `if` branch does not dominate code after it.
struct FenceState {
  bool Release = false; ///< a release/acq_rel/seq_cst fence dominates
  uint32_t SeqCstLine = 0; ///< line of the dominating seq_cst fence, or 0
};

class OrderWalker {
public:
  OrderWalker(const std::vector<Token> &T, size_t Begin, size_t End,
              const OrderContracts &Contracts,
              std::vector<FenceContract> &Fences, OrderStats &Stats,
              std::vector<RawViolation> &Out)
      : T(T), Begin(Begin), End(End), Contracts(Contracts), Fences(Fences),
        Stats(Stats), Out(Out) {}

  void run() {
    if (Begin >= End || Begin >= T.size())
      return;
    BodyFirstLine = T[Begin].Line;
    BodyLastLine = T[std::min(End, T.size()) - 1].Line;
    Dom.push_back({});
    for (size_t I = Begin; I < End && I < T.size(); ++I)
      step(I);
  }

private:
  const Token &at(size_t I) const {
    static const Token EndTok{Token::Kind::End, {}, 0};
    return I < T.size() ? T[I] : EndTok;
  }

  void step(size_t I) {
    const Token &Tk = T[I];
    if (Tk.isPunct("{")) {
      Dom.push_back(Dom.back());
      return;
    }
    if (Tk.isPunct("}")) {
      if (Dom.size() > 1)
        Dom.pop_back();
      return;
    }
    if (!Tk.is(Token::Kind::Identifier) || !at(I + 1).isPunct("("))
      return;

    std::string_view N = Tk.Text;
    if (N == "atomic_thread_fence") {
      ++Stats.Fences;
      switch (argOrder(I + 1)) {
      case MemOrder::Release:
      case MemOrder::AcqRel:
        Dom.back().Release = true;
        break;
      case MemOrder::SeqCst:
      case MemOrder::Default:
        Dom.back().Release = true;
        Dom.back().SeqCstLine = Tk.Line;
        break;
      default:
        break; // acquire/consume/relaxed fences publish nothing
      }
      return;
    }

    bool Method = I > Begin && (at(I - 1).isPunct(".") ||
                                at(I - 1).isPunct("->"));
    if (Method && (isAtomicLoad(N) || isAtomicStore(N) || isAtomicRmw(N))) {
      ++Stats.AtomicOps;
      if (isAtomicRmw(N))
        return; // inventoried; relaxed RMWs are reviewed choices
      checkAccess(I, isAtomicStore(N));
      return;
    }

    bindFenceContracts(I, N);
  }

  /// Last depth-1 memory_order_* identifier in the argument list whose
  /// '(' is at \p LParen (nested calls keep their own orders).
  MemOrder argOrder(size_t LParen) const {
    MemOrder O = MemOrder::Default;
    int Depth = 0;
    for (size_t J = LParen; J < End && J < T.size(); ++J) {
      if (at(J).isPunct("(")) {
        ++Depth;
      } else if (at(J).isPunct(")")) {
        if (--Depth == 0)
          break;
      } else if (Depth == 1 && at(J).is(Token::Kind::Identifier)) {
        MemOrder Cand = orderFromIdent(at(J).Text);
        if (Cand != MemOrder::Default)
          O = Cand;
      }
    }
    return O;
  }

  /// Index of the opener matching the closer at \p Close, or SIZE_MAX.
  size_t matchBackward(size_t Close) const {
    std::string_view C = T[Close].Text;
    std::string_view O = C == ")" ? "(" : "[";
    int Depth = 0;
    for (size_t J = Close + 1; J-- > Begin;) {
      if (T[J].isPunct(C))
        ++Depth;
      else if (T[J].isPunct(O) && --Depth == 0)
        return J;
    }
    return SIZE_MAX;
  }

  /// Identifiers of the postfix chain left of the '.'/'->' at \p DotIdx:
  /// `S.lockTable().stripeAt(L.I).store(..)` → {stripeAt, lockTable, S}.
  /// Subscript indexes are not collected (`Slots[T].E` → {E, Slots}).
  std::vector<std::string_view> receiverChain(size_t DotIdx) const {
    std::vector<std::string_view> Chain;
    size_t J = DotIdx;
    for (unsigned Guard = 0; Guard < 32 && J > Begin; ++Guard) {
      const Token &Tk = at(J - 1);
      if (Tk.is(Token::Kind::Identifier)) {
        Chain.push_back(Tk.Text);
        size_t K = J - 1;
        if (K > Begin && (at(K - 1).isPunct(".") || at(K - 1).isPunct("->") ||
                          at(K - 1).isPunct("::"))) {
          J = K - 1;
          continue;
        }
        break;
      }
      if (Tk.isPunct(")") || Tk.isPunct("]")) {
        size_t Open = matchBackward(J - 1);
        if (Open == SIZE_MAX || Open <= Begin)
          break;
        J = Open;
        continue;
      }
      break;
    }
    return Chain;
  }

  const std::string *
  firstContractName(const std::vector<std::string_view> &Chain,
                    const std::vector<std::string> &Names) const {
    for (std::string_view Link : Chain)
      for (const std::string &Name : Names)
        if (Link == Name)
          return &Name;
    return nullptr;
  }

  void checkAccess(size_t I, bool IsStore) {
    std::vector<std::string_view> Chain = receiverChain(I - 1);
    if (Chain.empty())
      return;
    MemOrder O = argOrder(I + 1);
    const FenceState &D = Dom.back();

    if (IsStore) {
      const std::string *Publish = firstContractName(Chain, Contracts.Publish);
      const std::string *Pair = firstContractName(Chain, Contracts.Pair);
      if (O == MemOrder::Relaxed && !D.Release) {
        if (Publish)
          Out.push_back(
              {Rule::TornPublish, T[I].Line,
               "relaxed store publishes '" + *Publish +
                   "' with no dominating release fence on this path "
                   "(contract: publish(" + *Publish +
                   ") requires release-fence-before) — readers can "
                   "observe the new version before the data it guards"});
        if (Pair)
          Out.push_back(
              {Rule::AcquireRelease, T[I].Line,
               "store to '" + *Pair +
                   "' is neither release nor behind a release fence "
                   "(contract: pair(" + *Pair +
                   ") acquire-load release-store)"});
      }
      // A data store is not ordered by a fence that precedes it, so no
      // earlier fence dominates a publish that follows it. Cleared at
      // every open depth: a store inside a nested block still sits
      // between the fence and any publish after the block closes.
      if (!Publish && !Pair)
        for (FenceState &S : Dom)
          S.Release = false;
      return;
    }
    // Loads: only the pair() contract constrains them.
    if (O == MemOrder::Relaxed || O == MemOrder::Consume) {
      if (const std::string *Name = firstContractName(Chain, Contracts.Pair))
        Out.push_back(
            {Rule::AcquireRelease, T[I].Line,
             "relaxed load of '" + *Name +
                 "' breaks its acquire-load/release-store pairing "
                 "(contract: pair(" + *Name + "))"});
    }
  }

  void bindFenceContracts(size_t I, std::string_view N) {
    for (FenceContract &FC : Fences) {
      if (FC.Bound || FC.Callee != N)
        continue;
      // Only contracts declared inside this body, lexically before the
      // call, are candidates.
      if (FC.Line + 1 < BodyFirstLine || FC.Line > BodyLastLine ||
          T[I].Line < FC.Line)
        continue;
      FC.Bound = true;
      const FenceState &D = Dom.back();
      if (D.SeqCstLine == 0 || D.SeqCstLine < FC.Line)
        Out.push_back(
            {Rule::FenceContract, T[I].Line,
             "call to '" + FC.Callee + "()' on the '" + FC.Label +
                 "' path is not dominated by a seq_cst fence — "
                 "store-buffering window: two committers can each miss "
                 "the other's freshly taken locks and both commit"});
    }
  }

  const std::vector<Token> &T;
  size_t Begin, End;
  const OrderContracts &Contracts;
  std::vector<FenceContract> &Fences;
  OrderStats &Stats;
  std::vector<RawViolation> &Out;
  std::vector<FenceState> Dom;
  uint32_t BodyFirstLine = 0, BodyLastLine = 0;
};

} // namespace

void gstm::lint::parseOrderContracts(const TokenStream &TS,
                                     OrderContracts &Global,
                                     std::vector<FenceContract> &Fences) {
  for (const Comment &C : TS.Comments) {
    size_t Key = C.Text.find("stm-order:");
    if (Key == std::string_view::npos)
      continue;
    // Only comments that *begin* with the marker declare contracts;
    // documentation quoting the grammar (e.g. `///   // stm-order: ...`
    // in OrderRules.h) has a doc-comment `/` or nested `//` before it.
    if (C.Text.find_first_not_of(" \t") != Key)
      continue;
    size_t After = Key;
    std::string_view Name = parenArg(C.Text, "publish", Key, After);
    if (!Name.empty()) {
      Global.Publish.emplace_back(Name);
      continue;
    }
    Name = parenArg(C.Text, "pair", Key, After);
    if (!Name.empty()) {
      Global.Pair.emplace_back(Name);
      continue;
    }
    std::string_view Kind = parenArg(C.Text, "fence", Key, After);
    if (Kind != "seq_cst")
      continue; // only seq_cst fence contracts are defined
    size_t Pos = After;
    std::string_view Callee = parenArg(C.Text, "before", Pos, After);
    if (Callee.empty())
      continue;
    Pos = After;
    std::string_view Label = parenArg(C.Text, "label", Pos, After);
    FenceContract FC;
    FC.Line = C.Line;
    FC.Callee = std::string(Callee);
    FC.Label = Label.empty() ? FC.Callee : std::string(Label);
    Fences.push_back(std::move(FC));
  }
}

void gstm::lint::checkOrder(const std::vector<Token> &Tokens, size_t Begin,
                            size_t End, const OrderContracts &Contracts,
                            std::vector<FenceContract> &Fences,
                            OrderStats &Stats,
                            std::vector<RawViolation> &Out) {
  OrderWalker(Tokens, Begin, End, Contracts, Fences, Stats, Out).run();
}
