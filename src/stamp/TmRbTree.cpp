//===- stamp/TmRbTree.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// CLRS red-black tree with an explicit NIL sentinel. Every shared field
// access inside the transactional operations goes through the Tl2Txn, so
// the STM's commit-time validation makes each operation atomic.
//
//===----------------------------------------------------------------------===//

#include "stamp/TmRbTree.h"

using namespace gstm;

TmRbTree::TmRbTree(Pool &Nodes) : P(Nodes) {
  Nil = P.allocate();
  TmRbNode &N = P[Nil];
  N.Color.storeDirect(Black);
  N.Left.storeDirect(Nil);
  N.Right.storeDirect(Nil);
  N.Parent.storeDirect(Nil);
  Root.storeDirect(Nil);
}

uint32_t TmRbTree::findNode(Tl2Txn &Tx, uint64_t Key) {
  uint32_t Cur = Tx.load(Root);
  while (Cur != Nil) {
    uint64_t K = key(Tx, Cur);
    if (Key == K)
      return Cur;
    Cur = Key < K ? left(Tx, Cur) : right(Tx, Cur);
  }
  return Nil;
}

std::optional<uint64_t> TmRbTree::find(Tl2Txn &Tx, uint64_t Key) {
  uint32_t N = findNode(Tx, Key);
  if (N == Nil)
    return std::nullopt;
  return Tx.load(P[N].Value);
}

bool TmRbTree::update(Tl2Txn &Tx, uint64_t Key, uint64_t Value) {
  uint32_t N = findNode(Tx, Key);
  if (N == Nil)
    return false;
  Tx.store(P[N].Value, Value);
  return true;
}

void TmRbTree::rotateLeft(Tl2Txn &Tx, uint32_t X) {
  uint32_t Y = right(Tx, X);
  uint32_t YL = left(Tx, Y);
  Tx.store(P[X].Right, YL);
  if (YL != Nil)
    Tx.store(P[YL].Parent, X);
  uint32_t XP = parent(Tx, X);
  Tx.store(P[Y].Parent, XP);
  if (XP == Nil)
    Tx.store(Root, Y);
  else if (X == left(Tx, XP))
    Tx.store(P[XP].Left, Y);
  else
    Tx.store(P[XP].Right, Y);
  Tx.store(P[Y].Left, X);
  Tx.store(P[X].Parent, Y);
}

void TmRbTree::rotateRight(Tl2Txn &Tx, uint32_t X) {
  uint32_t Y = left(Tx, X);
  uint32_t YR = right(Tx, Y);
  Tx.store(P[X].Left, YR);
  if (YR != Nil)
    Tx.store(P[YR].Parent, X);
  uint32_t XP = parent(Tx, X);
  Tx.store(P[Y].Parent, XP);
  if (XP == Nil)
    Tx.store(Root, Y);
  else if (X == right(Tx, XP))
    Tx.store(P[XP].Right, Y);
  else
    Tx.store(P[XP].Left, Y);
  Tx.store(P[Y].Right, X);
  Tx.store(P[X].Parent, Y);
}

bool TmRbTree::insert(Tl2Txn &Tx, uint64_t Key, uint64_t Value,
                      uint32_t *Spare) {
  uint32_t Y = Nil;
  uint32_t X = Tx.load(Root);
  while (X != Nil) {
    Y = X;
    uint64_t K = key(Tx, X);
    if (Key == K)
      return false;
    X = Key < K ? left(Tx, X) : right(Tx, X);
  }

  uint32_t Z = P.allocateOrReuse(Spare);
  TmRbNode &N = P[Z];
  Tx.store(N.Key, Key);
  Tx.store(N.Value, Value);
  Tx.store(N.Parent, Y);
  Tx.store(N.Left, Nil);
  Tx.store(N.Right, Nil);
  Tx.store(N.Color, Red);
  if (Y == Nil)
    Tx.store(Root, Z);
  else if (Key < key(Tx, Y))
    Tx.store(P[Y].Left, Z);
  else
    Tx.store(P[Y].Right, Z);

  insertFixup(Tx, Z);
  Tx.store(Count, Tx.load(Count) + 1);
  return true;
}

void TmRbTree::insertFixup(Tl2Txn &Tx, uint32_t Z) {
  while (color(Tx, parent(Tx, Z)) == Red) {
    uint32_t ZP = parent(Tx, Z);
    uint32_t ZPP = parent(Tx, ZP);
    if (ZP == left(Tx, ZPP)) {
      uint32_t Uncle = right(Tx, ZPP);
      if (color(Tx, Uncle) == Red) {
        Tx.store(P[ZP].Color, Black);
        Tx.store(P[Uncle].Color, Black);
        Tx.store(P[ZPP].Color, Red);
        Z = ZPP;
      } else {
        if (Z == right(Tx, ZP)) {
          Z = ZP;
          rotateLeft(Tx, Z);
          ZP = parent(Tx, Z);
          ZPP = parent(Tx, ZP);
        }
        Tx.store(P[ZP].Color, Black);
        Tx.store(P[ZPP].Color, Red);
        rotateRight(Tx, ZPP);
      }
    } else {
      uint32_t Uncle = left(Tx, ZPP);
      if (color(Tx, Uncle) == Red) {
        Tx.store(P[ZP].Color, Black);
        Tx.store(P[Uncle].Color, Black);
        Tx.store(P[ZPP].Color, Red);
        Z = ZPP;
      } else {
        if (Z == left(Tx, ZP)) {
          Z = ZP;
          rotateRight(Tx, Z);
          ZP = parent(Tx, Z);
          ZPP = parent(Tx, ZP);
        }
        Tx.store(P[ZP].Color, Black);
        Tx.store(P[ZPP].Color, Red);
        rotateLeft(Tx, ZPP);
      }
    }
  }
  Tx.store(P[Tx.load(Root)].Color, Black);
}

void TmRbTree::transplant(Tl2Txn &Tx, uint32_t U, uint32_t V) {
  uint32_t UP = parent(Tx, U);
  if (UP == Nil)
    Tx.store(Root, V);
  else if (U == left(Tx, UP))
    Tx.store(P[UP].Left, V);
  else
    Tx.store(P[UP].Right, V);
  // CLRS: unconditional, even when V is the sentinel — the delete fixup
  // relies on Nil.Parent being set.
  Tx.store(P[V].Parent, UP);
}

uint32_t TmRbTree::minimum(Tl2Txn &Tx, uint32_t N) {
  uint32_t L = left(Tx, N);
  while (L != Nil) {
    N = L;
    L = left(Tx, N);
  }
  return N;
}

std::optional<uint64_t> TmRbTree::remove(Tl2Txn &Tx, uint64_t Key) {
  uint32_t Z = findNode(Tx, Key);
  if (Z == Nil)
    return std::nullopt;
  uint64_t Removed = Tx.load(P[Z].Value);

  uint32_t Y = Z;
  uint32_t YColor = color(Tx, Y);
  uint32_t X;
  if (left(Tx, Z) == Nil) {
    X = right(Tx, Z);
    transplant(Tx, Z, X);
  } else if (right(Tx, Z) == Nil) {
    X = left(Tx, Z);
    transplant(Tx, Z, X);
  } else {
    Y = minimum(Tx, right(Tx, Z));
    YColor = color(Tx, Y);
    X = right(Tx, Y);
    if (parent(Tx, Y) == Z) {
      Tx.store(P[X].Parent, Y);
    } else {
      transplant(Tx, Y, X);
      uint32_t ZR = right(Tx, Z);
      Tx.store(P[Y].Right, ZR);
      Tx.store(P[ZR].Parent, Y);
    }
    transplant(Tx, Z, Y);
    uint32_t ZL = left(Tx, Z);
    Tx.store(P[Y].Left, ZL);
    Tx.store(P[ZL].Parent, Y);
    Tx.store(P[Y].Color, color(Tx, Z));
  }
  if (YColor == Black)
    removeFixup(Tx, X);

  Tx.store(Count, Tx.load(Count) - 1);
  return Removed;
}

void TmRbTree::removeFixup(Tl2Txn &Tx, uint32_t X) {
  while (X != Tx.load(Root) && color(Tx, X) == Black) {
    uint32_t XP = parent(Tx, X);
    if (X == left(Tx, XP)) {
      uint32_t W = right(Tx, XP);
      if (color(Tx, W) == Red) {
        Tx.store(P[W].Color, Black);
        Tx.store(P[XP].Color, Red);
        rotateLeft(Tx, XP);
        W = right(Tx, XP);
      }
      if (color(Tx, left(Tx, W)) == Black &&
          color(Tx, right(Tx, W)) == Black) {
        Tx.store(P[W].Color, Red);
        X = XP;
      } else {
        if (color(Tx, right(Tx, W)) == Black) {
          uint32_t WL = left(Tx, W);
          Tx.store(P[WL].Color, Black);
          Tx.store(P[W].Color, Red);
          rotateRight(Tx, W);
          W = right(Tx, XP);
        }
        Tx.store(P[W].Color, color(Tx, XP));
        Tx.store(P[XP].Color, Black);
        uint32_t WR = right(Tx, W);
        Tx.store(P[WR].Color, Black);
        rotateLeft(Tx, XP);
        X = Tx.load(Root);
      }
    } else {
      uint32_t W = left(Tx, XP);
      if (color(Tx, W) == Red) {
        Tx.store(P[W].Color, Black);
        Tx.store(P[XP].Color, Red);
        rotateRight(Tx, XP);
        W = left(Tx, XP);
      }
      if (color(Tx, right(Tx, W)) == Black &&
          color(Tx, left(Tx, W)) == Black) {
        Tx.store(P[W].Color, Red);
        X = XP;
      } else {
        if (color(Tx, left(Tx, W)) == Black) {
          uint32_t WR = right(Tx, W);
          Tx.store(P[WR].Color, Black);
          Tx.store(P[W].Color, Red);
          rotateLeft(Tx, W);
          W = left(Tx, XP);
        }
        Tx.store(P[W].Color, color(Tx, XP));
        Tx.store(P[XP].Color, Black);
        uint32_t WL = left(Tx, W);
        Tx.store(P[WL].Color, Black);
        rotateRight(Tx, XP);
        X = Tx.load(Root);
      }
    }
  }
  Tx.store(P[X].Color, Black);
}

int TmRbTree::validateFrom(uint32_t N, uint64_t Lo, uint64_t Hi, bool HasLo,
                           bool HasHi) const {
  if (N == Nil)
    return 1; // sentinel is black

  uint64_t K = P[N].Key.loadDirect();
  if ((HasLo && K <= Lo) || (HasHi && K >= Hi))
    return -1; // ordering violated

  uint32_t C = P[N].Color.loadDirect();
  uint32_t L = P[N].Left.loadDirect();
  uint32_t R = P[N].Right.loadDirect();
  if (C == Red) {
    if ((L != Nil && P[L].Color.loadDirect() == Red) ||
        (R != Nil && P[R].Color.loadDirect() == Red))
      return -1; // red node with red child
  }

  int LeftHeight = validateFrom(L, Lo, K, HasLo, true);
  int RightHeight = validateFrom(R, K, Hi, true, HasHi);
  if (LeftHeight < 0 || RightHeight < 0 || LeftHeight != RightHeight)
    return -1;
  return LeftHeight + (C == Black ? 1 : 0);
}

bool TmRbTree::validateDirect() const {
  uint32_t R = Root.loadDirect();
  if (R == Nil)
    return Count.loadDirect() == 0;
  if (P[R].Color.loadDirect() != Black)
    return false;
  if (validateFrom(R, 0, 0, false, false) < 0)
    return false;
  // Recount the keys against the maintained counter.
  uint64_t Seen = 0;
  forEachDirect([&Seen](uint64_t, uint64_t) { ++Seen; });
  return Seen == Count.loadDirect();
}
