//===- tests/slingen_test.cpp - whole-pipeline driver tests ----------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// End-to-end: LA source -> Generator -> C-IR -> interpreter, validated
// against the dense statement evaluator on the same inputs. Covers the
// Table 3 HLACs over sizes and algorithmic variants, the Fig. 5 fragment,
// and the three Fig. 13 applications, across scalar/SSE2/AVX targets.
//===----------------------------------------------------------------------===//

#include "cir/Interp.h"
#include "cir/Passes.h"
#include "erm/Erm.h"
#include "expr/Evaluator.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "slingen/Normalize.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <map>

using namespace slingen;
using namespace slingen::testdata;

namespace {

struct NamedData {
  std::string Name;
  std::vector<double> Data;
};

/// Runs source through (a) the dense evaluator and (b) the full generator
/// pipeline + C-IR interpreter, then compares every output operand.
void checkPipeline(const std::string &Source,
                   const std::vector<NamedData> &Inputs,
                   const GenOptions &O, double Tol,
                   const std::vector<int> *ForcedChoice = nullptr) {
  std::string Err;
  auto Ref = la::compileLa(Source, Err);
  ASSERT_TRUE(Ref) << Err;

  // Reference execution.
  Env E;
  for (const NamedData &In : Inputs) {
    const Operand *Op = Ref->findOperand(In.Name);
    ASSERT_NE(Op, nullptr) << In.Name;
    E.set(Op, In.Data);
  }
  evalProgram(*Ref, E);

  // Generated execution.
  auto Gen = la::compileLa(Source, Err);
  ASSERT_TRUE(Gen) << Err;
  Generator G(std::move(*Gen), O);
  ASSERT_TRUE(G.isValid()) << G.error();
  std::optional<GenResult> R =
      ForcedChoice ? G.generate(*ForcedChoice) : G.best(8);
  ASSERT_TRUE(R) << "generation failed";

  std::map<const Operand *, double *> Bufs;
  std::map<std::string, std::vector<double>> Storage;
  for (const Operand *P : R->Func.Params) {
    auto &B = Storage[P->Name];
    B.assign(static_cast<size_t>(P->Rows) * P->Cols, 0.0);
    for (const NamedData &In : Inputs)
      if (In.Name == P->Name)
        B = In.Data;
    Bufs[P] = B.data();
  }
  cir::interpret(R->Func, Bufs);

  // Compare every user-visible output (by name).
  for (const Operand *Op : R->Basic.operands()) {
    if (Op->IsTemp || !Op->isWritable())
      continue;
    const Operand *RefOp = Ref->findOperand(Op->Name);
    ASSERT_NE(RefOp, nullptr) << Op->Name;
    std::vector<double> Want = E.get(RefOp);
    const Operand *Root = Op->root();
    ASSERT_TRUE(Storage.count(Root->Name)) << Root->Name;
    const std::vector<double> &Got = Storage[Root->Name];
    ASSERT_EQ(Want.size(), Got.size());
    double MaxDiff = 0.0;
    for (size_t I = 0; I < Want.size(); ++I)
      MaxDiff = std::max(MaxDiff, std::fabs(Want[I] - Got[I]));
    EXPECT_LT(MaxDiff, Tol) << "output " << Op->Name << " nu=" << O.nu();
  }
}

GenOptions optsFor(const VectorISA &Isa) {
  GenOptions O;
  O.Isa = &Isa;
  return O;
}

const VectorISA &isaForNu(int Nu) {
  switch (Nu) {
  case 1:
    return scalarIsa();
  case 2:
    return sse2Isa();
  case 8:
    return avx512Isa();
  default:
    return avxIsa();
  }
}

//===----------------------------------------------------------------------===//
// Table 3 HLACs through the full pipeline.
//===----------------------------------------------------------------------===//

class PipelineHlac : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineHlac, Potrf) {
  auto [N, Nu] = GetParam();
  Rng R(N * 17 + Nu);
  checkPipeline(la::potrfSource(N), {{"A", spd(N, R)}},
                optsFor(isaForNu(Nu)),
                1e-9 * N);
}

TEST_P(PipelineHlac, Trtri) {
  auto [N, Nu] = GetParam();
  Rng R(N * 19 + Nu);
  checkPipeline(la::trtriSource(N), {{"L", lowerTri(N, R)}},
                optsFor(isaForNu(Nu)),
                1e-8 * N);
}

TEST_P(PipelineHlac, Trsyl) {
  auto [N, Nu] = GetParam();
  Rng R(N * 23 + Nu);
  checkPipeline(la::trsylSource(N),
                {{"L", lowerTri(N, R)},
                 {"U", upperTri(N, R)},
                 {"C", general(N, N, R)}},
                optsFor(isaForNu(Nu)),
                1e-8 * N);
}

TEST_P(PipelineHlac, Trlya) {
  auto [N, Nu] = GetParam();
  Rng R(N * 29 + Nu);
  checkPipeline(la::trlyaSource(N),
                {{"L", lowerTri(N, R)}, {"S", symmetric(N, R)}},
                optsFor(isaForNu(Nu)),
                1e-8 * N);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndIsas, PipelineHlac,
    ::testing::Combine(::testing::Values(1, 2, 4, 5, 8, 11, 12, 16),
                       ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &I) {
      return "n" + std::to_string(std::get<0>(I.param)) + "_nu" +
             std::to_string(std::get<1>(I.param));
    });

//===----------------------------------------------------------------------===//
// Algorithmic variants through the full pipeline.
//===----------------------------------------------------------------------===//

TEST(PipelineVariants, PotrfAllThree) {
  for (int V = 0; V < 3; ++V) {
    std::vector<int> Choice{V};
    Rng R(101 + V);
    checkPipeline(la::potrfSource(12), {{"A", spd(12, R)}},
                  optsFor(avxIsa()), 1e-8, &Choice);
  }
}

TEST(PipelineVariants, TrsylSeveral) {
  for (int V : {0, 3, 7, 15}) {
    std::vector<int> Choice{V};
    Rng R(202 + V);
    checkPipeline(la::trsylSource(12),
                  {{"L", lowerTri(12, R)},
                   {"U", upperTri(12, R)},
                   {"C", general(12, 12, R)}},
                  optsFor(avxIsa()), 1e-7, &Choice);
  }
}

TEST(PipelineVariants, EnumerateRanksByCost) {
  std::string Err;
  auto P = la::compileLa(la::potrfSource(16), Err);
  ASSERT_TRUE(P) << Err;
  Generator G(std::move(*P), optsFor(avxIsa()));
  ASSERT_TRUE(G.isValid()) << G.error();
  ASSERT_EQ(G.hlacCount(), 1);
  ASSERT_EQ(G.variantCounts()[0], 3);
  std::vector<GenResult> All = G.enumerate(8);
  ASSERT_EQ(All.size(), 3u);
  EXPECT_LE(All[0].Cost, All[1].Cost);
  EXPECT_LE(All[1].Cost, All[2].Cost);
}

TEST(PipelineVariants, DatabaseAccumulatesReuse) {
  std::string Err;
  auto P = la::compileLa(la::potrfSource(16), Err);
  ASSERT_TRUE(P) << Err;
  Generator G(std::move(*P), optsFor(avxIsa()));
  ASSERT_TRUE(G.isValid());
  (void)G.enumerate(3);
  EXPECT_GT(G.database().reuseHits(), 0);
}

//===----------------------------------------------------------------------===//
// Fig. 5 fragment and the Fig. 13 applications.
//===----------------------------------------------------------------------===//

TEST(PipelineApps, Fig5) {
  for (int N : {4, 8, 9}) {
    Rng R(303 + N);
    checkPipeline(la::fig5Source(N, N),
                  {{"H", general(N, N, R)},
                   {"P", spd(N, R)},
                   {"R", spd(N, R)}},
                  optsFor(avxIsa()), 1e-8 * N);
  }
}

TEST(PipelineApps, KalmanFilter) {
  for (int N : {4, 8, 11}) {
    Rng R(404 + N);
    checkPipeline(la::kalmanSource(N, N),
                  {{"F", general(N, N, R)},
                   {"Bm", general(N, N, R)},
                   {"Q", spd(N, R)},
                   {"H", general(N, N, R)},
                   {"R", spd(N, R)},
                   {"P", spd(N, R)},
                   {"u", general(N, 1, R)},
                   {"x", general(N, 1, R)},
                   {"z", general(N, 1, R)}},
                  optsFor(avxIsa()), 1e-7 * N);
  }
}

TEST(PipelineApps, KalmanFixedState) {
  // Fig. 15b: rectangular H (observation size != state size).
  for (int K : {4, 6}) {
    int N = 8;
    Rng R(505 + K);
    checkPipeline(la::kalmanSource(N, K),
                  {{"F", general(N, N, R)},
                   {"Bm", general(N, N, R)},
                   {"Q", spd(N, R)},
                   {"H", general(K, N, R)},
                   {"R", spd(K, R)},
                   {"P", spd(N, R)},
                   {"u", general(N, 1, R)},
                   {"x", general(N, 1, R)},
                   {"z", general(K, 1, R)}},
                  optsFor(avxIsa()), 1e-7 * N);
  }
}

TEST(PipelineApps, GaussianProcess) {
  for (int N : {4, 8, 12}) {
    Rng R(606 + N);
    checkPipeline(la::gprSource(N),
                  {{"K", spd(N, R)},
                   {"X", general(N, N, R)},
                   {"x", general(N, 1, R)},
                   {"y", general(N, 1, R)}},
                  optsFor(avxIsa()), 1e-7 * N);
  }
}

TEST(PipelineApps, L1Analysis) {
  for (int N : {4, 8, 12}) {
    Rng R(707 + N);
    checkPipeline(la::l1aSource(N),
                  {{"W", general(N, N, R)},
                   {"A", general(N, N, R)},
                   {"x0", general(N, 1, R)},
                   {"y", general(N, 1, R)},
                   {"v1", general(N, 1, R)},
                   {"z1", general(N, 1, R)},
                   {"v2", general(N, 1, R)},
                   {"z2", general(N, 1, R)},
                   {"alpha", {0.7}},
                   {"beta", {0.3}},
                   {"tau", {0.11}}},
                  optsFor(avxIsa()), 1e-8 * N);
  }
}

TEST(PipelineApps, ForLoopProgram) {
  // An LA program using the grammar's for-loop with index-dependent
  // slices: blocked row scaling plus a trailing product.
  const char *Src = R"la(
Mat A(8, 8) <In>;
Vec x(8) <In>;
Vec y(8) <Out>;
Vec t(8) <Out>;
Sca a <In>;

for (i = 0:8:4) {
  t(i:i+4) = a * x(i:i+4);
}
y = A * t;
)la";
  Rng R(808);
  checkPipeline(Src,
                {{"A", general(8, 8, R)},
                 {"x", general(8, 1, R)},
                 {"a", {1.75}}},
                optsFor(avxIsa()), 1e-10);
}

//===----------------------------------------------------------------------===//
// Normalization invariants.
//===----------------------------------------------------------------------===//

TEST(Normalization, KalmanBecomesTilable) {
  std::string Err;
  auto P = la::compileLa(la::kalmanSource(8, 8), Err);
  ASSERT_TRUE(P) << Err;
  ASSERT_TRUE(normalizeProgram(*P, Err)) << Err;
  std::set<const Operand *> Defined = P->initiallyDefined();
  for (const EqStmt &S : P->stmts()) {
    StmtInfo Info = classifyStmt(S, Defined);
    if (!Info.IsHlac)
      EXPECT_TRUE(isTilable(S)) << S.str();
    else
      EXPECT_TRUE(isa<ViewExpr>(S.Rhs) || S.Rhs->kind() == ExprKind::Inv)
          << S.str();
  }
}

TEST(Normalization, ThreeFactorProductSplits) {
  // Y = F * P * F^T + Q must split into two statements.
  Program P;
  Operand *F = P.addOperand("F", 6, 6);
  Operand *Pm = P.addOperand("P", 6, 6);
  Operand *Q = P.addOperand("Q", 6, 6);
  Operand *Y = P.addOperand("Y", 6, 6);
  Y->IO = IOKind::Out;
  P.append({view(Y), add(mul(mul(view(F), view(Pm)), trans(view(F))),
                         view(Q))});
  std::string Err;
  ASSERT_TRUE(normalizeProgram(P, Err)) << Err;
  ASSERT_EQ(P.stmts().size(), 2u);
  for (const EqStmt &S : P.stmts())
    EXPECT_TRUE(isTilable(S)) << S.str();
}

TEST(Normalization, MatrixDivisionBecomesReciprocalScale) {
  // x = b / lambda (vector / scalar) becomes t = 1/lambda; x = t * b.
  Program P;
  Operand *B = P.addOperand("b", 8, 1);
  Operand *L = P.addOperand("lambda", 1, 1);
  Operand *X = P.addOperand("x", 8, 1);
  X->IO = IOKind::Out;
  P.append({view(X), divExpr(view(B), view(L))});
  std::string Err;
  ASSERT_TRUE(normalizeProgram(P, Err)) << Err;
  ASSERT_EQ(P.stmts().size(), 2u);
  EXPECT_TRUE(isTilable(P.stmts()[0]));
  EXPECT_TRUE(isTilable(P.stmts()[1]));
}

TEST(Normalization, ScalarSqrtInMatrixStmtIsHoisted) {
  // x = sqrt(alpha) * b: the sqrt must move into a scalar temporary so the
  // remaining statement is a plain scalar-times-vector sBLAC.
  Program P;
  Operand *A = P.addOperand("alpha", 1, 1);
  Operand *B = P.addOperand("b", 8, 1);
  Operand *X = P.addOperand("x", 8, 1);
  X->IO = IOKind::Out;
  P.append({view(X), mul(sqrtExpr(view(A)), view(B))});
  std::string Err;
  ASSERT_TRUE(normalizeProgram(P, Err)) << Err;
  ASSERT_EQ(P.stmts().size(), 2u);
  for (const EqStmt &S : P.stmts())
    EXPECT_TRUE(isTilable(S)) << S.str();

  // And the result is numerically right.
  Env E;
  E.set(A, {2.25});
  std::vector<double> BD(8);
  for (int I = 0; I < 8; ++I)
    BD[I] = I + 1;
  E.set(B, BD);
  evalProgram(P, E);
  auto XD = E.get(X);
  for (int I = 0; I < 8; ++I)
    EXPECT_NEAR(XD[I], 1.5 * (I + 1), 1e-12);
}

//===----------------------------------------------------------------------===//
// Stage 3 division by reciprocals, on the served (static-best) variants.
//===----------------------------------------------------------------------===//

template <typename FnT>
void forEachInst(const std::vector<cir::Node> &Body, FnT Fn) {
  for (const cir::Node &N : Body) {
    if (const auto *I = std::get_if<cir::Inst>(&N))
      Fn(*I);
    else
      forEachInst(std::get<cir::Loop>(N).Body, Fn);
  }
}

template <typename FnT>
void forEachMutableInst(std::vector<cir::Node> &Body, FnT Fn) {
  for (cir::Node &N : Body) {
    if (auto *I = std::get_if<cir::Inst>(&N))
      Fn(*I);
    else
      forEachMutableInst(std::get<cir::Loop>(N).Body, Fn);
  }
}

/// Registers holding the constant 1.
std::vector<bool> ones(const cir::Function &F) {
  std::vector<bool> One(F.NumRegs, false);
  forEachInst(F.Body, [&](const cir::Inst &I) {
    if (I.K == cir::Op::SConst && I.Imm == 1.0)
      One[I.Dst] = true;
  });
  return One;
}

/// \p F with every product by a reciprocal `1 / d` turned back into a
/// division by d: the function as it stood before cir::reciprocalDivide.
cir::Function dividedBack(const cir::Function &F) {
  cir::Function G = F;
  std::vector<bool> One = ones(G);
  std::vector<int> Of(G.NumRegs, -1);
  forEachInst(G.Body, [&](const cir::Inst &I) {
    if (I.K == cir::Op::SDiv && One[I.A])
      Of[I.Dst] = I.B;
  });
  forEachMutableInst(G.Body, [&](cir::Inst &I) {
    if (I.K != cir::Op::SMul)
      return;
    if (Of[I.A] >= 0)
      std::swap(I.A, I.B);
    if (Of[I.B] >= 0) {
      I.K = cir::Op::SDiv;
      I.B = Of[I.B];
    }
  });
  cir::dce(G);
  return G;
}

/// The served kernel of \p Source (KernelService's static choice over 16
/// variants) and the same function before and after a direct call of
/// cir::reciprocalDivide.
struct Stage3Pair {
  GenResult Served;
  cir::Function Before, After;
};

std::optional<Stage3Pair> stage3Pair(const std::string &Source,
                                     const VectorISA &Isa) {
  std::string Err;
  auto P = la::compileLa(Source, Err);
  if (!P) {
    ADD_FAILURE() << Err;
    return std::nullopt;
  }
  GenOptions O;
  O.Isa = &Isa;
  Generator G(std::move(*P), O);
  std::optional<GenResult> R = G.best(16);
  if (!R) {
    ADD_FAILURE() << "generation failed";
    return std::nullopt;
  }
  Stage3Pair S{std::move(*R), {}, {}};
  S.Before = dividedBack(S.Served.Func);
  S.After = S.Before;
  cir::reciprocalDivide(S.After);
  cir::dce(S.After);
  return S;
}

int countOp(const cir::Function &F, cir::Op K) {
  int N = 0;
  forEachInst(F.Body, [&](const cir::Inst &I) { N += I.K == K; });
  return N;
}

/// The direct call reproduces the served division count and shortens the
/// critical path of the function before it.
void expectPassShortensChain(const Stage3Pair &S, const char *What) {
  EXPECT_EQ(countOp(S.After, cir::Op::SDiv),
            countOp(S.Served.Func, cir::Op::SDiv))
      << What;
  EXPECT_LT(erm::analyze(S.After).CriticalPathCycles,
            erm::analyze(S.Before).CriticalPathCycles)
      << What;
}

const VectorISA *const AllIsas[] = {&scalarIsa(), &sse2Isa(), &avxIsa(),
                                    &avx512Isa()};

TEST(ReciprocalDivide, GprDividesOncePerDiagonal) {
  for (const VectorISA *Isa : AllIsas) {
    auto S = stage3Pair(la::gprSource(4), *Isa);
    ASSERT_TRUE(S);
    std::vector<bool> One = ones(S->Served.Func);
    int Divs = 0, Sqrts = 0;
    forEachInst(S->Served.Func.Body, [&](const cir::Inst &I) {
      if (I.K == cir::Op::SDiv) {
        ++Divs;
        EXPECT_TRUE(One[I.A]) << Isa->Name << ": " << I.str();
      }
      Sqrts += I.K == cir::Op::SSqrt;
    });
    EXPECT_EQ(Divs, 4) << Isa->Name;
    EXPECT_EQ(Sqrts, 4) << Isa->Name;
    expectPassShortensChain(*S, Isa->Name);
  }
}

// Each divisor L(i,i) + U(j,j) is ready from the inputs, long before the
// numerator's chain, so every division becomes a multiply by a reciprocal.
// The one exception is the first element, whose numerator is an input that
// is ready before the divisor's add: the latency rule keeps that division.
TEST(ReciprocalDivide, SylvesterAndLyapunovDivideOffTheChain) {
  const double Mul = erm::sandyBridge().MulLatency;
  for (const char *Kind : {"trsyl", "trlya"})
    for (const VectorISA *Isa : AllIsas) {
      std::string Source = std::string(Kind) == "trsyl"
                               ? la::trsylSource(4)
                               : la::trlyaSource(4);
      auto S = stage3Pair(Source, *Isa);
      ASSERT_TRUE(S);
      std::vector<bool> One = ones(S->Served.Func);
      std::vector<double> Ready = erm::readyCycles(S->Before);
      int Kept = 0;
      forEachInst(S->Served.Func.Body, [&](const cir::Inst &I) {
        if (I.K != cir::Op::SDiv || One[I.A])
          return;
        ++Kept;
        EXPECT_GT(Ready[I.B] + Mul, Ready[I.A])
            << Kind << " " << Isa->Name << ": " << I.str();
      });
      EXPECT_EQ(Kept, 1) << Kind << " " << Isa->Name;
      if (std::string(Kind) == "trsyl")
        expectPassShortensChain(*S, Isa->Name);
    }
}

} // namespace
