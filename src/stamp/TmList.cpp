//===- stamp/TmList.cpp ----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmList.h"

using namespace gstm;

TmList::Position TmList::locate(Tl2Txn &Tx, Pool &Nodes, uint64_t Key) {
  Position P;
  P.Cur = Tx.read(Head);
  while (P.Cur != Pool::Null) {
    P.CurLink = Tx.read(Nodes[P.Cur].Link);
    if (P.CurLink.Key >= Key)
      break;
    P.Prev = P.Cur;
    P.PrevLink = P.CurLink;
    P.Cur = P.CurLink.Next;
  }
  return P;
}

void TmList::relink(Tl2Txn &Tx, Pool &Nodes, const Position &At,
                    uint32_t Next) {
  if (At.Prev == Pool::Null)
    Tx.write(Head, Next);
  else
    Tx.write(Nodes[At.Prev].Link, TmListLink{At.PrevLink.Key, Next});
}

void TmList::link(Tl2Txn &Tx, Pool &Nodes, const Position &At, uint64_t Key,
                  uint64_t Value, uint32_t *Spare) {
  uint32_t Fresh = Nodes.allocateOrReuse(Spare);
  TmListNode &N = Nodes[Fresh];
  Tx.write(N.Link, TmListLink{Key, At.Cur});
  Tx.store(N.Value, Value);
  relink(Tx, Nodes, At, Fresh);
}

bool TmList::insert(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint64_t Value,
                    uint32_t *Spare) {
  const Position At = locate(Tx, Nodes, Key);
  if (At.found(Key))
    return false;
  link(Tx, Nodes, At, Key, Value, Spare);
  return true;
}

bool TmList::insertOrAssign(Tl2Txn &Tx, Pool &Nodes, uint64_t Key,
                            uint64_t Value, uint32_t *Spare) {
  const Position At = locate(Tx, Nodes, Key);
  if (At.found(Key)) {
    Tx.store(Nodes[At.Cur].Value, Value);
    return false;
  }
  link(Tx, Nodes, At, Key, Value, Spare);
  return true;
}

std::optional<uint64_t> TmList::find(Tl2Txn &Tx, Pool &Nodes, uint64_t Key) {
  const Position At = locate(Tx, Nodes, Key);
  if (!At.found(Key))
    return std::nullopt;
  return Tx.load(Nodes[At.Cur].Value);
}

std::optional<uint64_t> TmList::remove(Tl2Txn &Tx, Pool &Nodes,
                                       uint64_t Key) {
  const Position At = locate(Tx, Nodes, Key);
  if (!At.found(Key))
    return std::nullopt;
  uint64_t Value = Tx.load(Nodes[At.Cur].Value);
  relink(Tx, Nodes, At, At.CurLink.Next);
  return Value;
}

uint64_t TmList::size(Tl2Txn &Tx, Pool &Nodes) {
  uint64_t Count = 0;
  uint32_t Cur = Tx.read(Head);
  while (Cur != Pool::Null) {
    ++Count;
    Cur = Tx.read(Nodes[Cur].Link).Next;
  }
  return Count;
}
