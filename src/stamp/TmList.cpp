//===- stamp/TmList.cpp ----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmList.h"

using namespace gstm;

void TmList::locate(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint32_t &Prev,
                    uint32_t &Cur) {
  Prev = Pool::Null;
  Cur = Tx.load(Head);
  while (Cur != Pool::Null) {
    TmListNode &N = Nodes[Cur];
    if (Tx.load(N.Key) >= Key)
      return;
    Prev = Cur;
    Cur = Tx.load(N.Next);
  }
}

bool TmList::insert(Tl2Txn &Tx, Pool &Nodes, uint64_t Key, uint64_t Value,
                    uint32_t *Spare) {
  uint32_t Prev, Cur;
  locate(Tx, Nodes, Key, Prev, Cur);
  if (Cur != Pool::Null && Tx.load(Nodes[Cur].Key) == Key)
    return false;

  uint32_t Fresh = Nodes.allocateOrReuse(Spare);
  TmListNode &N = Nodes[Fresh];
  Tx.store(N.Key, Key);
  Tx.store(N.Value, Value);
  Tx.store(N.Next, Cur);
  if (Prev == Pool::Null)
    Tx.store(Head, Fresh);
  else
    Tx.store(Nodes[Prev].Next, Fresh);
  return true;
}

bool TmList::insertOrAssign(Tl2Txn &Tx, Pool &Nodes, uint64_t Key,
                            uint64_t Value) {
  uint32_t Prev, Cur;
  locate(Tx, Nodes, Key, Prev, Cur);
  if (Cur != Pool::Null && Tx.load(Nodes[Cur].Key) == Key) {
    Tx.store(Nodes[Cur].Value, Value);
    return false;
  }

  uint32_t Fresh = Nodes.allocate();
  TmListNode &N = Nodes[Fresh];
  Tx.store(N.Key, Key);
  Tx.store(N.Value, Value);
  Tx.store(N.Next, Cur);
  if (Prev == Pool::Null)
    Tx.store(Head, Fresh);
  else
    Tx.store(Nodes[Prev].Next, Fresh);
  return true;
}

std::optional<uint64_t> TmList::find(Tl2Txn &Tx, Pool &Nodes, uint64_t Key) {
  uint32_t Prev, Cur;
  locate(Tx, Nodes, Key, Prev, Cur);
  if (Cur == Pool::Null || Tx.load(Nodes[Cur].Key) != Key)
    return std::nullopt;
  return Tx.load(Nodes[Cur].Value);
}

std::optional<uint64_t> TmList::remove(Tl2Txn &Tx, Pool &Nodes,
                                       uint64_t Key) {
  uint32_t Prev, Cur;
  locate(Tx, Nodes, Key, Prev, Cur);
  if (Cur == Pool::Null || Tx.load(Nodes[Cur].Key) != Key)
    return std::nullopt;
  uint64_t Value = Tx.load(Nodes[Cur].Value);
  uint32_t After = Tx.load(Nodes[Cur].Next);
  if (Prev == Pool::Null)
    Tx.store(Head, After);
  else
    Tx.store(Nodes[Prev].Next, After);
  return Value;
}

uint64_t TmList::size(Tl2Txn &Tx, Pool &Nodes) {
  uint64_t Count = 0;
  uint32_t Cur = Tx.load(Head);
  while (Cur != Pool::Null) {
    ++Count;
    Cur = Tx.load(Nodes[Cur].Next);
  }
  return Count;
}
