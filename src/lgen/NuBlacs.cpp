//===- lgen/NuBlacs.cpp ---------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lgen/NuBlacs.h"

#include <algorithm>
#include <cassert>

using namespace slingen;
using namespace slingen::lgen;
using cir::Addr;
using cir::FuncBuilder;

/// Builds the physical address of logical element (R, C) of op(V): the
/// transpose swaps the roles of R and C, and the view offset plus the root
/// leading dimension map to the flat buffer.
Addr lgen::elemAddr(const ViewExpr &V, bool Trans, Pos R, Pos C) {
  if (Trans)
    std::swap(R, C);
  int Ld = V.Op->root()->Cols;
  Addr A;
  A.Buf = V.Op->root();
  A.Const = (V.R0 + R.Const) * Ld + V.C0 + C.Const;
  for (auto [Var, Coeff] : R.Terms)
    A.Terms.push_back({Var, Coeff * Ld});
  for (auto [Var, Coeff] : C.Terms)
    A.Terms.push_back({Var, Coeff});
  return A;
}

int lgen::tileWidth(int Live, int Nu) {
  if (Live <= 1)
    return 1;
  int W = Live <= 2 ? 2 : (Live <= 4 ? 4 : 8);
  return std::min(W, Nu);
}

int lgen::loadSpan(FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
                   Pos C, int Count, bool AlongCols, int Width) {
  assert(Count >= 1 && Count <= Width && Width <= B.nu() &&
         "span wider than its register");
  // Physical direction: advancing along logical columns of a transposed
  // view walks physical rows.
  bool PhysAlongCols = AlongCols != Trans;
  int Ld = V.Op->root()->Cols;
  Addr A = elemAddr(V, Trans, R, C);
  if (PhysAlongCols || Count == 1 || Ld == 1)
    return B.vload(std::move(A), Count, Width);
  return B.vloadStrided(std::move(A), Ld, Count, Width);
}

void lgen::storeSpan(FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
                     Pos C, int Count, bool AlongCols, int Reg) {
  assert(Count >= 1 && Count <= B.width(Reg) && "span wider than a register");
  bool PhysAlongCols = AlongCols != Trans;
  int Ld = V.Op->root()->Cols;
  Addr A = elemAddr(V, Trans, R, C);
  if (PhysAlongCols || Count == 1 || Ld == 1) {
    B.vstore(std::move(A), Reg, Count);
    return;
  }
  B.vstoreStrided(std::move(A), Reg, Ld, Count);
}

int lgen::loadElem(FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
                   Pos C) {
  return B.sload(elemAddr(V, Trans, R, C));
}

void lgen::storeElem(FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
                     Pos C, int Reg) {
  B.sstore(elemAddr(V, Trans, R, C), Reg);
}
