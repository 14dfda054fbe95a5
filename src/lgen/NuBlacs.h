//===- lgen/NuBlacs.h - vector codelet building blocks --------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Loaders/Storers and nu-BLAC building blocks of LGen (paper Sec. 2.1):
/// span loads/stores through operand views (with transposition, leftover
/// masking, and strided column access), and the register-level kernels the
/// tiler composes (broadcast-FMA matrix tiles, dot reductions, axpy spans).
/// Positions may be affine in loop variables so the same codelets serve both
/// fully unrolled and loop-materialized tilings.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_LGEN_NUBLACS_H
#define SLINGEN_LGEN_NUBLACS_H

#include "cir/CIR.h"
#include "expr/Expr.h"

namespace slingen {
namespace lgen {

/// An affine position Const + sum coeff_i * loopvar_i (element units).
struct Pos {
  int Const = 0;
  std::vector<std::pair<int, int>> Terms;

  Pos() = default;
  /*implicit*/ Pos(int C) : Const(C) {}
  static Pos var(int VarId, int Coeff = 1, int C = 0) {
    Pos P(C);
    P.Terms.push_back({VarId, Coeff});
    return P;
  }
  Pos plus(int D) const {
    Pos P = *this;
    P.Const += D;
    return P;
  }
};

/// Address of logical element (R, C) of the (possibly transposed) view \p V.
cir::Addr elemAddr(const ViewExpr &V, bool Trans, Pos R, Pos C);

/// Register width of a tile piece with \p Live live lanes under an ISA of
/// vector width \p Nu: the narrowest of 8, 4 and 2 lanes that holds them
/// (capped at Nu), or 1 -- a scalar register -- for a single lane. Sub-nu
/// leftovers thus become their own narrower codelets instead of mostly-dead
/// full-width registers.
int tileWidth(int Live, int Nu);

/// Loads \p Count consecutive logical elements of op(V) starting at (R, C)
/// into a \p Width-lane vector register, advancing along columns when
/// \p AlongCols (a row span) or along rows otherwise. Chooses contiguous vs
/// strided loads from the physical layout. Lanes beyond Count are zero.
int loadSpan(cir::FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R, Pos C,
             int Count, bool AlongCols, int Width);

/// Stores the first \p Count lanes of \p Reg to the logical span.
void storeSpan(cir::FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
               Pos C, int Count, bool AlongCols, int Reg);

/// Loads logical element (R, C) of op(V) into a scalar register.
int loadElem(cir::FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
             Pos C);

void storeElem(cir::FuncBuilder &B, const ViewExpr &V, bool Trans, Pos R,
               Pos C, int Reg);

} // namespace lgen
} // namespace slingen

#endif // SLINGEN_LGEN_NUBLACS_H
