//===- tests/property_test.cpp - randomized invariant checks ---------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Properties that must hold for *every* program the generator accepts:
//   - the Stage 3 passes preserve semantics (pass-on == pass-off),
//   - all ISA targets compute the same function,
//   - Program::clone is a faithful deep copy,
//   - synthesized HLAC expansions have the expected asymptotic flop cost.
// Programs are drawn from a randomized family of shaped sBLAC statements
// plus the paper's HLACs.
//===----------------------------------------------------------------------===//

#include "cir/Interp.h"
#include "expr/Evaluator.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <map>

using namespace slingen;
using namespace slingen::testdata;

namespace {

//===----------------------------------------------------------------------===//
// Randomized sBLAC programs.
//===----------------------------------------------------------------------===//

/// Builds a random but well-formed program with 2-5 statements over
/// operands of dimensions in [1, 9], mixing products, transposes, scalar
/// coefficients and structured square operands.
Program randomProgram(Rng &R) {
  Program P;
  auto Dim = [&] { return 1 + static_cast<int>(R.next() % 9); };
  int M = Dim(), K = Dim(), N = Dim();

  Operand *A = P.addOperand("A", M, K);
  Operand *B = P.addOperand("B", K, N);
  Operand *D = P.addOperand("D", M, N);
  Operand *T = P.addOperand("T", K, K);
  switch (R.next() % 4) {
  case 0:
    T->Structure = StructureKind::LowerTriangular;
    break;
  case 1:
    T->Structure = StructureKind::UpperTriangular;
    break;
  case 2:
    T->Structure = StructureKind::SymmetricLower;
    break;
  default:
    break;
  }
  Operand *Alpha = P.addOperand("alpha", 1, 1);
  Operand *C = P.addOperand("C", M, N);
  C->IO = IOKind::Out;
  Operand *E = P.addOperand("E", M, K);
  E->IO = IOKind::Out;
  Operand *F = P.addOperand("F", N, N);
  F->IO = IOKind::Out;

  // Statement 1: E = A * T (structured factor) or E = alpha * A.
  if (R.next() % 2)
    P.append({view(E), mul(view(A), view(T))});
  else
    P.append({view(E), mul(view(Alpha), view(A))});
  // Statement 2: C = E * B + D or C = D - E * B.
  if (R.next() % 2)
    P.append({view(C), add(mul(view(E), view(B)), view(D))});
  else
    P.append({view(C), sub(view(D), mul(view(E), view(B)))});
  // Statement 3: F = B' * E' ... dimensions: B' (N x K), E' (K x M) -> N x M;
  // only valid when M == N. Use C' * C (N x M * M x N) instead: requires
  // C read after write -- allowed (C defined by stmt 2).
  P.append({view(F), mul(trans(view(C)), view(C))});
  // Optional statement 4: C = C - alpha * D (self-update).
  if (R.next() % 2)
    P.append({view(C), sub(view(C), mul(view(Alpha), view(D)))});
  return P;
}

/// Fills inputs of \p P deterministically, runs the dense evaluator, and
/// returns the named outputs.
std::map<std::string, std::vector<double>>
referenceRun(const Program &P, uint64_t Seed) {
  Rng R(Seed);
  Env E;
  for (const Operand *Op : P.operands())
    if (Op->IO != IOKind::Out) {
      std::vector<double> Data =
          general(Op->Rows, Op->Cols, R); // structure-agnostic fill
      if (Op->Structure == StructureKind::LowerTriangular)
        Data = lowerTri(Op->Rows, R);
      else if (Op->Structure == StructureKind::UpperTriangular)
        Data = upperTri(Op->Rows, R);
      else if (isSymmetric(Op->Structure))
        Data = symmetric(Op->Rows, R);
      E.set(Op, Data);
    }
  evalProgram(P, E);
  std::map<std::string, std::vector<double>> Out;
  for (const Operand *Op : P.operands())
    Out[Op->Name] = E.get(Op);
  return Out;
}

/// Runs the generated pipeline (with \p O) on \p P and compares all
/// user-visible outputs with \p Want.
void checkGenerated(Program P, const GenOptions &O, uint64_t Seed,
                    const std::map<std::string, std::vector<double>> &Want,
                    const char *What) {
  Generator G(std::move(P), O);
  ASSERT_TRUE(G.isValid()) << What << ": " << G.error();
  auto R = G.best(4);
  ASSERT_TRUE(R) << What;

  std::map<const Operand *, double *> Bufs;
  std::map<std::string, std::vector<double>> Storage;
  for (const Operand *Param : R->Func.Params) {
    auto &Buf = Storage[Param->Name];
    Buf.assign(static_cast<size_t>(Param->Rows) * Param->Cols, 0.0);
    Bufs[Param] = Buf.data();
  }
  // Inputs are regenerated with the same seed, assignment order, and RNG
  // stream consumption as referenceRun (declaration order is preserved by
  // clone/normalize, temps are appended after the user declarations).
  {
    Rng R3(Seed);
    for (const Operand *Op : R->Basic.operands()) {
      if (Op->IsTemp || Op->IO == IOKind::Out)
        continue;
      std::vector<double> Data = general(Op->Rows, Op->Cols, R3);
      if (Op->Structure == StructureKind::LowerTriangular)
        Data = lowerTri(Op->Rows, R3);
      else if (Op->Structure == StructureKind::UpperTriangular)
        Data = upperTri(Op->Rows, R3);
      else if (isSymmetric(Op->Structure))
        Data = symmetric(Op->Rows, R3);
      auto It = Storage.find(Op->root()->Name);
      ASSERT_NE(It, Storage.end());
      It->second = Data;
    }
  }
  cir::interpret(R->Func, Bufs);

  for (const Operand *Op : R->Basic.operands()) {
    if (Op->IsTemp || !Op->isWritable())
      continue;
    auto ItWant = Want.find(Op->Name);
    ASSERT_NE(ItWant, Want.end()) << Op->Name;
    const std::vector<double> &Got = Storage[Op->root()->Name];
    ASSERT_EQ(Got.size(), ItWant->second.size());
    double MaxDiff = 0.0;
    for (size_t I = 0; I < Got.size(); ++I)
      MaxDiff = std::max(MaxDiff,
                         std::fabs(Got[I] - ItWant->second[I]));
    EXPECT_LT(MaxDiff, 1e-9) << What << " output " << Op->Name;
  }
}

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, PassesPreserveSemantics) {
  uint64_t Seed = 1000 + GetParam();
  Rng R(Seed);
  Program P = randomProgram(R);
  auto Want = referenceRun(P, Seed);

  GenOptions Full;
  Full.Isa = &avxIsa();
  checkGenerated(P.clone(), Full, Seed, Want, "full pipeline");

  GenOptions NoOpt = Full;
  NoOpt.EnableUnroll = false;
  NoOpt.EnableCse = false;
  NoOpt.EnableLoadStoreOpt = false;
  NoOpt.EnableDce = false;
  NoOpt.ApplyVectorRules = false;
  checkGenerated(P.clone(), NoOpt, Seed, Want, "passes disabled");
}

TEST_P(RandomPrograms, AllIsasAgree) {
  uint64_t Seed = 2000 + GetParam();
  Rng R(Seed);
  Program P = randomProgram(R);
  auto Want = referenceRun(P, Seed);
  for (const char *Isa : {"scalar", "sse2", "avx", "avx512"}) {
    GenOptions O;
    O.Isa = isaByNameOrNull(Isa);
    checkGenerated(P.clone(), O, Seed, Want, Isa);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0, 24));

//===----------------------------------------------------------------------===//
// Clone fidelity.
//===----------------------------------------------------------------------===//

TEST(ProgramClone, DeepCopyPreservesEverything) {
  std::string Err;
  auto P = la::compileLa(la::fig5Source(8, 8), Err);
  ASSERT_TRUE(P) << Err;
  Program C = P->clone();
  EXPECT_EQ(C.str(), P->str());
  // Fresh operand identities.
  for (const Operand *Op : C.operands())
    EXPECT_EQ(P->findOperand(Op->Name)->Name, Op->Name);
  EXPECT_NE(C.findOperand("U"), P->findOperand("U"));
  // ow() chain remapped into the clone, not the original.
  EXPECT_EQ(C.findOperand("U")->root(), C.findOperand("S"));
}

TEST(ProgramClone, MutatingCloneLeavesOriginal) {
  std::string Err;
  auto P = la::compileLa(la::potrfSource(8), Err);
  ASSERT_TRUE(P) << Err;
  std::string Before = P->str();
  Program C = P->clone();
  ASSERT_TRUE(expandProgramHlacs(C, 4, {0}));
  EXPECT_GT(C.stmts().size(), P->stmts().size());
  EXPECT_EQ(P->str(), Before);
}

//===----------------------------------------------------------------------===//
// Flop-count asymptotics of the synthesized algorithms.
//===----------------------------------------------------------------------===//

double expansionFlops(const std::string &Src) {
  std::string Err;
  auto P = la::compileLa(Src, Err);
  EXPECT_TRUE(P) << Err;
  EXPECT_TRUE(expandProgramHlacs(*P, 4, {0}));
  double Flops = 0.0;
  for (const EqStmt &S : P->stmts())
    Flops += static_cast<double>(stmtFlops(S));
  return Flops;
}

TEST(ExpansionCost, PotrfIsCubicOverThree) {
  // Statement-level flops approach n^3/3 (structure savings are partially
  // modeled at this level; allow a factor-of-2 band).
  for (int N : {16, 32, 64}) {
    double F = expansionFlops(la::potrfSource(N));
    double Ideal = N * static_cast<double>(N) * N / 3.0;
    EXPECT_GT(F, 0.5 * Ideal) << N;
    EXPECT_LT(F, 2.5 * Ideal) << N;
  }
}

TEST(ExpansionCost, TrsylIsTwoCubic) {
  for (int N : {16, 32}) {
    double F = expansionFlops(la::trsylSource(N));
    double Ideal = 2.0 * N * static_cast<double>(N) * N;
    EXPECT_GT(F, 0.4 * Ideal) << N;
    EXPECT_LT(F, 2.5 * Ideal) << N;
  }
}

TEST(ExpansionCost, TrtriIsCubicOverThree) {
  for (int N : {16, 32}) {
    double F = expansionFlops(la::trtriSource(N));
    double Ideal = N * static_cast<double>(N) * N / 3.0;
    EXPECT_GT(F, 0.4 * Ideal) << N;
    EXPECT_LT(F, 3.0 * Ideal) << N;
  }
}

//===----------------------------------------------------------------------===//
// ISA layer.
//===----------------------------------------------------------------------===//

TEST(Isa, DescriptorsAreConsistent) {
  EXPECT_EQ(scalarIsa().Nu, 1);
  EXPECT_EQ(sse2Isa().Nu, 2);
  EXPECT_EQ(avxIsa().Nu, 4);
  EXPECT_EQ(avx512Isa().Nu, 8);
  EXPECT_STREQ(isaByNameOrNull("avx512")->Name, avx512Isa().Name);
  EXPECT_STREQ(isaByNameOrNull("avx")->Name, avxIsa().Name);
  EXPECT_STREQ(isaByNameOrNull("sse2")->Name, sse2Isa().Name);
  EXPECT_STREQ(isaByNameOrNull("scalar")->Name, scalarIsa().Name);
  EXPECT_EQ(isaByNameOrNull("neon"), nullptr);
}

TEST(Isa, HostIsaIsOneOfTheKnown) {
  const VectorISA &H = hostIsa();
  EXPECT_TRUE(H.Nu == 1 || H.Nu == 2 || H.Nu == 4 || H.Nu == 8);
}

} // namespace
