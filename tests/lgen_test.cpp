//===- tests/lgen_test.cpp - tiling layer tests ----------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Every tiled kernel is validated against the dense evaluator by running
// the generated C-IR in the interpreter, across vector widths, sizes
// (including non-multiples of nu), structures, and statement shapes.
//===----------------------------------------------------------------------===//

#include "cir/Interp.h"
#include "cir/Passes.h"
#include "expr/Evaluator.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "lgen/Tiler.h"
#include "lgen/VectorRules.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <functional>
#include <regex>

using namespace slingen;
using namespace slingen::testdata;

namespace {

/// Runs one statement through (a) the dense evaluator and (b) the tiler +
/// interpreter, and compares all writable operand buffers.
void checkStmt(Program &P, std::map<const Operand *, std::vector<double>>
                               Inputs,
               int Nu, int UnrollTiles = 32, double Tol = 1e-11) {
  // Evaluator reference.
  Env RefEnv;
  for (auto &[Op, Data] : Inputs)
    RefEnv.set(Op, Data);
  evalProgram(P, RefEnv);

  // Tiled code under test.
  lgen::TileOptions Opt;
  Opt.Nu = Nu;
  Opt.UnrollTiles = UnrollTiles;
  cir::FuncBuilder B("kernel", Nu);
  std::set<const Operand *> Defined = P.initiallyDefined();
  for (const EqStmt &S : P.stmts()) {
    classifyStmt(S, Defined);
    lgen::compileSBlac(B, S, Opt);
    // Keep the full-storage convention for structured outputs.
    lgen::emitStructureNormalize(B, *cast<ViewExpr>(S.Lhs.get()), Opt);
  }
  std::vector<const Operand *> Roots;
  std::map<const Operand *, std::vector<double>> Bufs;
  for (const Operand *Op : P.operands()) {
    const Operand *R = Op->root();
    if (Bufs.count(R))
      continue;
    Bufs[R] = std::vector<double>(static_cast<size_t>(R->Rows) * R->Cols,
                                  0.0);
    Roots.push_back(R);
  }
  for (auto &[Op, Data] : Inputs) {
    const Operand *R = Op->root();
    std::copy(Data.begin(), Data.end(), Bufs[R].begin());
  }
  cir::Function F = B.take(Roots);
  std::map<const Operand *, double *> Ptrs;
  for (auto &[R, V] : Bufs)
    Ptrs[R] = V.data();
  interpret(F, Ptrs);

  for (const Operand *Op : P.operands()) {
    if (!Op->isWritable())
      continue;
    auto Want = RefEnv.get(Op);
    const auto &GotBuf = Bufs[Op->root()];
    double MaxDiff = 0.0;
    for (int I = 0; I < Op->Rows * Op->Cols; ++I)
      MaxDiff = std::max(MaxDiff, std::fabs(Want[I] - GotBuf[I]));
    EXPECT_LT(MaxDiff, Tol) << "operand " << Op->Name << " nu=" << Nu
                            << "\n"
                            << F.str();
  }
}

class TilerWidths : public ::testing::TestWithParam<int> {};

TEST_P(TilerWidths, GemmPlusC) {
  int Nu = GetParam();
  for (int M : {3, 4, 8, 12})
    for (int K : {1, 4, 7}) {
      Program P;
      Operand *A = P.addOperand("A", M, K);
      Operand *Bm = P.addOperand("B", K, M);
      Operand *C = P.addOperand("C", M, M);
      C->IO = IOKind::InOut;
      P.append({view(C), add(mul(view(A), view(Bm)), view(C))});
      Rng R(M * 131 + K);
      checkStmt(P,
                {{A, general(M, K, R)},
                 {Bm, general(K, M, R)},
                 {C, general(M, M, R)}},
                Nu);
    }
}

TEST_P(TilerWidths, TransposedFactors) {
  int Nu = GetParam();
  int M = 8, K = 6;
  Program P;
  Operand *A = P.addOperand("A", K, M); // used as A^T
  Operand *Bm = P.addOperand("B", M, K);
  Operand *C = P.addOperand("C", M, M);
  C->IO = IOKind::Out;
  // C = A^T * B^T.
  P.append({view(C), mul(trans(view(A)), trans(view(Bm)))});
  Rng R(7);
  checkStmt(P, {{A, general(K, M, R)}, {Bm, general(M, K, R)}}, Nu);
}

TEST_P(TilerWidths, SelfAccumulatingUpdate) {
  int Nu = GetParam();
  int M = 8, K = 4;
  Program P;
  Operand *U = P.addOperand("U", K, M);
  Operand *S = P.addOperand("S", M, M);
  S->IO = IOKind::InOut;
  // S = S - U^T U (the trailing update of blocked Cholesky).
  P.append({view(S), sub(view(S), mul(trans(view(U)), view(U)))});
  Rng R(21);
  checkStmt(P, {{U, general(K, M, R)}, {S, symmetric(M, R)}}, Nu);
}

TEST_P(TilerWidths, SymmetricOutputMirrors) {
  int Nu = GetParam();
  for (int M : {4, 8, 12}) {
    Program P;
    Operand *H = P.addOperand("H", M, M + 2);
    Operand *Rm = P.addOperand("R", M, M);
    Rm->Structure = StructureKind::SymmetricUpper;
    Operand *S = P.addOperand("S", M, M);
    S->Structure = StructureKind::SymmetricUpper;
    S->IO = IOKind::Out;
    P.append({view(S), add(mul(view(H), trans(view(H))), view(Rm))});
    Rng R(M);
    checkStmt(P, {{H, general(M, M + 2, R)}, {Rm, symmetric(M, R)}}, Nu);
  }
}

TEST_P(TilerWidths, TriangularFactorSkipsZeroRegion) {
  int Nu = GetParam();
  int M = 8;
  Program P;
  Operand *L = P.addOperand("L", M, M);
  L->Structure = StructureKind::LowerTriangular;
  Operand *X = P.addOperand("X", M, M);
  Operand *C = P.addOperand("C", M, M);
  C->IO = IOKind::Out;
  P.append({view(C), mul(view(L), view(X))});
  Rng R(3);
  checkStmt(P, {{L, lowerTri(M, R)}, {X, general(M, M, R)}}, Nu);
}

TEST_P(TilerWidths, MatrixVectorAndDots) {
  int Nu = GetParam();
  int M = 12, N = 8;
  Program P;
  Operand *A = P.addOperand("A", M, N);
  Operand *X = P.addOperand("x", N, 1);
  Operand *Z = P.addOperand("z", M, 1);
  Operand *Y = P.addOperand("y", M, 1);
  Y->IO = IOKind::Out;
  Operand *Dot = P.addOperand("d", 1, 1);
  Dot->IO = IOKind::Out;
  // y = z - A x; d = z^T z - y^T z.
  P.append({view(Y), sub(view(Z), mul(view(A), view(X)))});
  P.append({view(Dot), sub(mul(trans(view(Z)), view(Z)),
                           mul(trans(view(Y)), view(Z)))});
  Rng R(17);
  checkStmt(P,
            {{A, general(M, N, R)},
             {X, general(N, 1, R)},
             {Z, general(M, 1, R)}},
            Nu);
}

TEST_P(TilerWidths, ScaledVectorCombination) {
  int Nu = GetParam();
  int M = 11; // deliberately not a multiple of nu
  Program P;
  Operand *V1 = P.addOperand("v1", M, 1);
  Operand *Z1 = P.addOperand("z1", M, 1);
  Operand *Al = P.addOperand("alpha", 1, 1);
  Operand *Ta = P.addOperand("tau", 1, 1);
  Operand *Y = P.addOperand("y", M, 1);
  Y->IO = IOKind::Out;
  // y = alpha v1 + tau z1 (the l1a shape).
  P.append({view(Y), add(mul(view(Al), view(V1)), mul(view(Ta), view(Z1)))});
  Rng R(9);
  checkStmt(P,
            {{V1, general(M, 1, R)},
             {Z1, general(M, 1, R)},
             {Al, {0.75}},
             {Ta, {1.25}}},
            Nu);
}

TEST_P(TilerWidths, RowVectorOutput) {
  int Nu = GetParam();
  int N = 8;
  Program P;
  Operand *X = P.addOperand("x", N, 1);
  Operand *A = P.addOperand("A", N, N);
  Operand *Y = P.addOperand("y", 1, N);
  Y->IO = IOKind::Out;
  // y = x^T A.
  P.append({view(Y), mul(trans(view(X)), view(A))});
  Rng R(19);
  checkStmt(P, {{X, general(N, 1, R)}, {A, general(N, N, R)}}, Nu);
}

TEST_P(TilerWidths, OuterProduct) {
  int Nu = GetParam();
  int M = 8;
  Program P;
  Operand *X = P.addOperand("x", M, 1);
  Operand *Y = P.addOperand("y", M, 1);
  Operand *C = P.addOperand("C", M, M);
  C->IO = IOKind::Out;
  P.append({view(C), mul(view(X), trans(view(Y)))});
  Rng R(23);
  checkStmt(P, {{X, general(M, 1, R)}, {Y, general(M, 1, R)}}, Nu);
}

TEST_P(TilerWidths, TransposeOnly) {
  int Nu = GetParam();
  Program P;
  Operand *A = P.addOperand("A", 7, 5);
  Operand *C = P.addOperand("C", 5, 7);
  C->IO = IOKind::Out;
  P.append({view(C), trans(view(A))});
  Rng R(29);
  checkStmt(P, {{A, general(7, 5, R)}}, Nu);
}

TEST_P(TilerWidths, LoopModeMatchesUnrolled) {
  int Nu = GetParam();
  int M = 24, K = 24; // enough tiles to trigger loop mode at UnrollTiles=2
  Program P;
  Operand *A = P.addOperand("A", M, K);
  Operand *Bm = P.addOperand("B", K, M);
  Operand *C = P.addOperand("C", M, M);
  C->IO = IOKind::Out;
  P.append({view(C), mul(view(A), view(Bm))});
  Rng R(31);
  auto AD = general(M, K, R);
  auto BD = general(K, M, R);
  checkStmt(P, {{A, AD}, {Bm, BD}}, Nu, /*UnrollTiles=*/2);
}

TEST_P(TilerWidths, SubViewStatement) {
  int Nu = GetParam();
  // Operates on interior views, as FLAME-produced statements do.
  int N = 12;
  Program P;
  Operand *S = P.addOperand("S", N, N);
  S->IO = IOKind::InOut;
  Operand *U = P.addOperand("U", N, N);
  // S(8:12, 8:12) = S(8:12, 8:12) - U(0:4, 8:12)^T * U(0:4, 8:12).
  auto SBr = view(S, 8, 4, 8, 4);
  auto Panel = view(U, 0, 4, 8, 4);
  P.append({SBr, sub(SBr, mul(trans(Panel), Panel))});
  Rng R(37);
  checkStmt(P, {{S, general(N, N, R)}, {U, general(N, N, R)}}, Nu);
}

INSTANTIATE_TEST_SUITE_P(Widths, TilerWidths, ::testing::Values(1, 2, 4));

//===----------------------------------------------------------------------===//
// Vector rewriting rules (Table 2).
//===----------------------------------------------------------------------===//

TEST(VectorRules, MergesDivisionRun) {
  // u_j = s_j / d for j = 1..3 becomes t = 1/d; u span = t * s span
  // (rules R0+R1, exactly paper Fig. 10).
  Program P;
  Operand *U = P.addOperand("U", 4, 4);
  U->IO = IOKind::Out;
  Operand *S = P.addOperand("S", 4, 4);
  for (int J = 1; J < 4; ++J)
    P.append({view(U, 0, 1, J, 1),
              divExpr(view(S, 0, 1, J, 1), view(S, 0, 1, 0, 1))});
  int Merged = lgen::applyVectorRules(P);
  EXPECT_EQ(Merged, 2);
  ASSERT_EQ(P.stmts().size(), 2u); // reciprocal + scaling
  // First statement computes the reciprocal into a temp.
  EXPECT_EQ(P.stmts()[0].Rhs->kind(), ExprKind::Div);
  // Second is a scalar-times-span sBLAC.
  EXPECT_EQ(P.stmts()[1].Lhs->cols(), 3);
  EXPECT_EQ(P.stmts()[1].Rhs->kind(), ExprKind::Mul);

  // Numerically identical to the originals.
  Env E;
  Rng R(5);
  auto SD = general(4, 4, R);
  SD[0] = 2.0;
  E.set(S, SD);
  evalProgram(P, E);
  auto UD = E.get(U);
  for (int J = 1; J < 4; ++J)
    EXPECT_NEAR(UD[J], SD[J] / SD[0], 1e-12);
}

TEST(VectorRules, MergesUpdateRun) {
  // s_j = s_j - a * b_j runs merge into a span statement.
  Program P;
  Operand *S = P.addOperand("S", 4, 4);
  S->IO = IOKind::InOut;
  Operand *U = P.addOperand("U", 4, 4);
  for (int J = 0; J < 4; ++J)
    P.append({view(S, 1, 1, J, 1),
              sub(view(S, 1, 1, J, 1),
                  mul(view(U, 0, 1, 1, 1), view(U, 0, 1, J, 1)))});
  int Merged = lgen::applyVectorRules(P);
  EXPECT_EQ(Merged, 3);
  ASSERT_EQ(P.stmts().size(), 1u);
  EXPECT_EQ(P.stmts()[0].Lhs->cols(), 4);
}

TEST(VectorRules, KeepsNonRuns) {
  Program P;
  Operand *U = P.addOperand("U", 4, 4);
  U->IO = IOKind::Out;
  Operand *S = P.addOperand("S", 4, 4);
  // Different divisors: not a run.
  P.append({view(U, 0, 1, 1, 1),
            divExpr(view(S, 0, 1, 1, 1), view(S, 0, 1, 0, 1))});
  P.append({view(U, 0, 1, 2, 1),
            divExpr(view(S, 0, 1, 2, 1), view(S, 1, 1, 1, 1))});
  EXPECT_EQ(lgen::applyVectorRules(P), 0);
  EXPECT_EQ(P.stmts().size(), 2u);
}

TEST(VectorRules, ColumnRunsMerge) {
  Program P;
  Operand *X = P.addOperand("X", 6, 3);
  X->IO = IOKind::Out;
  Operand *Y = P.addOperand("Y", 6, 3);
  Operand *C = P.addOperand("c", 1, 1);
  for (int I = 0; I < 6; ++I)
    P.append({view(X, I, 1, 1, 1),
              mul(view(C), view(Y, I, 1, 1, 1))});
  EXPECT_EQ(lgen::applyVectorRules(P), 5);
  ASSERT_EQ(P.stmts().size(), 1u);
  EXPECT_EQ(P.stmts()[0].Lhs->rows(), 6);
  EXPECT_EQ(P.stmts()[0].Lhs->cols(), 1);
}

//===----------------------------------------------------------------------===//
// Emission shape: every register tile at the width of its live lanes.
//===----------------------------------------------------------------------===//

/// Lanes an instruction with a vector result (or stored operand) carries.
int liveLanes(const cir::Inst &I) {
  switch (I.K) {
  case cir::Op::VLoad:
  case cir::Op::VLoadStrided:
  case cir::Op::VStore:
  case cir::Op::VStoreStrided:
    return I.Lanes;
  case cir::Op::VShuffle: {
    int N = 0;
    for (int S : I.Sel)
      N += S >= 0;
    return N;
  }
  default:
    return -1; // arithmetic: as live as its operands
  }
}

void checkShape(const cir::Function &F, const std::string &C,
                size_t ParentBytes) {
  // No vector round trips through stack arrays.
  EXPECT_FALSE(std::regex_search(C, std::regex(R"(double t\d+_\[)")));
  // Horizontal sums are halving trees of narrower adds.
  EXPECT_EQ(C.find("_mm512_reduce_add_pd"), std::string::npos);
  // A 512-bit load, store, gather or shuffle holds at least five lanes.
  std::function<void(const std::vector<cir::Node> &)> Walk =
      [&](const std::vector<cir::Node> &Body) {
        for (const cir::Node &N : Body) {
          if (const auto *L = std::get_if<cir::Loop>(&N)) {
            Walk(L->Body);
            continue;
          }
          const cir::Inst &I = std::get<cir::Inst>(N);
          int Reg = cir::hasDst(I.K) ? I.Dst : I.A;
          if (!cir::isVector(I.K) || Reg < 0 || F.RegWidth[Reg] != 8)
            continue;
          int Live = liveLanes(I);
          EXPECT_TRUE(Live < 0 || Live >= 5) << I.str();
        }
      };
  Walk(F.Body);
  // The emission this replaced, on the same program.
  EXPECT_LE(C.size(), ParentBytes);
}

TEST(EmissionShape, Avx512TilesUseTheirLiveWidth) {
  struct Case {
    std::string Source;
    size_t ParentBytes; ///< emitC size before per-tile widths
  };
  for (const Case &K : {Case{la::potrfSource(4), 4052},
                        Case{la::trsylSource(4), 11531},
                        Case{la::trsylSource(12), 173358}}) {
    std::string Err;
    auto P = la::compileLa(K.Source, Err);
    ASSERT_TRUE(P) << Err;
    GenOptions O;
    O.Isa = &avx512Isa();
    O.FuncName = "k";
    Generator G(std::move(*P), O);
    ASSERT_TRUE(G.isValid()) << G.error();
    auto R = G.best(16);
    ASSERT_TRUE(R);
    SCOPED_TRACE(K.Source);
    checkShape(R->Func, emitC(*R), K.ParentBytes);
  }
}

} // namespace
