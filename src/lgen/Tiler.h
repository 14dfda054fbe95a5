//===- lgen/Tiler.h - sBLAC tiling and vectorization ----------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LGen compilation layer (paper Sec. 2.1 / Stage 2): a single sBLAC on
/// fixed-size operand views is decomposed into register tiles mapped onto
/// the nu-BLAC codelets -- each tile as wide as its live lanes, at most nu
/// (see lgen::tileWidth) -- with matrix structure propagated to (a) skip
/// zero tiles and terms, (b) restrict reduction ranges over triangular
/// factors, and (c) compute only the stored triangle of symmetric outputs.
/// Tiles are emitted either fully unrolled (small statements; enables the
/// Stage-3 load/store analysis) or as C-IR loops (large statements).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_LGEN_TILER_H
#define SLINGEN_LGEN_TILER_H

#include "cir/CIR.h"
#include "expr/Program.h"

namespace slingen {
namespace lgen {

struct TileOptions {
  int Nu = 4; ///< vector width (1 = scalar code)
  /// Statements whose tile count is at most this are emitted fully
  /// unrolled; larger ones become tile loops. Autotuning explores this.
  int UnrollTiles = 32;
  /// Reduction (inner) dimensions longer than this become loops instead of
  /// unrolled FMA chains.
  int UnrollK = 16;
};

/// A multiplicative factor of a term: a (possibly transposed) operand view.
struct Factor {
  const ViewExpr *V = nullptr;
  bool Trans = false;

  /// Structure of op(V).
  StructureKind effStructure() const {
    StructureKind S = V->structure();
    return Trans ? transposedStructure(S) : S;
  }
  int rows() const { return Trans ? V->cols() : V->rows(); }
  int cols() const { return Trans ? V->rows() : V->cols(); }
};

/// One additive term: Sign * (product of scalar factors) * (product of at
/// most two matrix/vector factors).
struct Term {
  int Sign = 1;
  std::vector<Factor> Mat;          ///< matrix/vector factors (size 0..2)
  std::vector<ExprPtr> Sca;         ///< scalar factors (1x1 views / consts)
};

/// Flattens an sBLAC right-hand side into a sum of terms. Returns false for
/// shapes the tiler does not accept (divisions or square roots inside
/// matrix statements, products with more than two matrix factors --
/// SLinGen's Stage 2 splits those with temporaries beforehand).
bool flattenRhs(const ExprPtr &E, std::vector<Term> &Out);

/// Compiles one sBLAC statement into C-IR, appending to \p B.
void compileSBlac(cir::FuncBuilder &B, const EqStmt &S,
                  const TileOptions &Opt);

/// Compiles a statement whose operands are all scalars (1x1), including
/// divisions and square roots.
void compileScalarStmt(cir::FuncBuilder &B, const EqStmt &S);

/// Emits the full-storage normalization for a freshly computed structured
/// view: mirrors the computed triangle of symmetric views, zeroes the
/// non-stored triangle of triangular views (see DESIGN.md).
void emitStructureNormalize(cir::FuncBuilder &B, const ViewExpr &V,
                            const TileOptions &Opt);

} // namespace lgen
} // namespace slingen

#endif // SLINGEN_LGEN_TILER_H
