//===- tests/cir_test.cpp - C-IR, interpreter, and pass tests --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"
#include "cir/CIR.h"
#include "cir/Interp.h"
#include "cir/Verify.h"
#include "cir/Passes.h"
#include "expr/Program.h"
#include "slingen/SLinGen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>

using namespace slingen;
using namespace slingen::cir;

namespace {

/// Oracle hook: every function this suite executes must pass the static
/// verifier first (cir/Verify.h), so the whole hand-built and pass-produced
/// IR corpus doubles as the verifier's clean set. All interpret() calls
/// below route through here.
void interpretVerified(const Function &F,
                       const std::map<const Operand *, double *> &Buffers) {
  std::vector<VerifyError> Errors = verify(F);
  for (const VerifyError &E : Errors)
    ADD_FAILURE() << "verifier rejected interpreted IR: " << E.str();
  interpret(F, Buffers);
}

void interpretVerified(const Function &F,
                       const std::map<const Operand *, double *> &Buffers,
                       int Active) {
  std::vector<VerifyError> Errors = verify(F);
  for (const VerifyError &E : Errors)
    ADD_FAILURE() << "verifier rejected interpreted IR: " << E.str();
  interpret(F, Buffers, Active);
}

/// Convenience: an environment with one 4x4 input A and one 4x4 output C.
struct Kernel2 {
  Program P;
  Operand *A, *C;
  std::vector<double> ABuf, CBuf;

  Kernel2() {
    A = P.addOperand("A", 4, 4);
    C = P.addOperand("C", 4, 4);
    C->IO = IOKind::Out;
    ABuf.resize(16);
    CBuf.assign(16, 0.0);
    for (int I = 0; I < 16; ++I)
      ABuf[I] = I + 1;
  }

  std::map<const Operand *, double *> buffers() {
    return {{A, ABuf.data()}, {C, CBuf.data()}};
  }
};

TEST(CirInterp, ScalarLoop) {
  // C[i] = A[i] * 2 + 1 for i in [0,16).
  Kernel2 K;
  FuncBuilder B("k", 1);
  int Two = B.sconst(2.0);
  int One = B.sconst(1.0);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  int M = B.sbin(Op::SMul, V, Two);
  int R = B.sbin(Op::SAdd, M, One);
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), R);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 16; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I], K.ABuf[I] * 2.0 + 1.0);
}

TEST(CirInterp, VectorOpsAndMaskedTail) {
  // C[0:3) = A[0:3) + A[4:7) using a masked 3-lane AVX-style load/store.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 3);
  int V2 = B.vload(B.addr(K.A, 4), 3);
  int S = B.vbin(Op::VAdd, V1, V2);
  B.vstore(B.addr(K.C, 0), S, 3);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 3; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I], K.ABuf[I] + K.ABuf[4 + I]);
  EXPECT_DOUBLE_EQ(K.CBuf[3], 0.0); // untouched
}

TEST(CirInterp, StridedColumnAccessAndShuffle) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  // Load column 1 of A (stride 4), reverse it with a shuffle, store to row 0
  // of C.
  int Col = B.vloadStrided(B.addr(K.A, 1), 4, 4);
  int Rev = B.vshuffle(Col, Col, {3, 2, 1, 0});
  B.vstore(B.addr(K.C, 0), Rev, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int L = 0; L < 4; ++L)
    EXPECT_DOUBLE_EQ(K.CBuf[L], K.ABuf[(3 - L) * 4 + 1]);
}

TEST(CirInterp, ShuffleZeroAndTwoSource) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);  // 1 2 3 4
  int V2 = B.vload(B.addr(K.A, 4), 4);  // 5 6 7 8
  int Sh = B.vshuffle(V1, V2, {1, 4, -1, 7}); // 2 5 0 8
  B.vstore(B.addr(K.C, 0), Sh, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0);
  EXPECT_DOUBLE_EQ(K.CBuf[1], 5.0);
  EXPECT_DOUBLE_EQ(K.CBuf[2], 0.0);
  EXPECT_DOUBLE_EQ(K.CBuf[3], 8.0);
}

TEST(CirInterp, ReduceExtractBroadcastFma) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4); // 1 2 3 4
  int Red = B.vreduceAdd(V1);          // 10
  B.sstore(B.addr(K.C, 0), Red);
  int E2 = B.vextract(V1, 2); // 3
  B.sstore(B.addr(K.C, 1), E2);
  int Bc = B.vbroadcast(E2);
  int Fma = B.vfma(Bc, V1, V1); // 3*A + A = 4A
  B.vstore(B.addr(K.C, 4), Fma, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 10.0);
  EXPECT_DOUBLE_EQ(K.CBuf[1], 3.0);
  for (int L = 0; L < 4; ++L)
    EXPECT_DOUBLE_EQ(K.CBuf[4 + L], 4.0 * K.ABuf[L]);
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

TEST(CirPasses, UnrollFoldsAddresses) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int IV = B.beginLoop(0, 4, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 4}}));
  B.sstore(B.addr(K.C, 0, {{IV, 4}}), V);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  unrollLoops(F, 8);
  EXPECT_EQ(countInsts(F), 8);
  // No loops remain.
  for (const Node &N : F.Body)
    EXPECT_TRUE(std::holds_alternative<Inst>(N));
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I * 4], K.ABuf[I * 4]);
}

TEST(CirPasses, UnrollKeepsLargeLoops) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), V);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  unrollLoops(F, 8);
  ASSERT_EQ(F.Body.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<Loop>(F.Body[0]));
}

TEST(CirPasses, CseDeduplicates) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int V2 = B.sload(B.addr(K.A, 1));
  int M1 = B.sbin(Op::SMul, V1, V2);
  int M2 = B.sbin(Op::SMul, V2, V1); // commutative duplicate
  int S = B.sbin(Op::SAdd, M1, M2);
  B.sstore(B.addr(K.C, 0), S);
  Function F = B.take({K.A, K.C});
  int Before = countInsts(F);
  cse(F);
  dce(F);
  EXPECT_LT(countInsts(F), Before);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0] * K.ABuf[1]);
}

TEST(CirPasses, DceRemovesUnusedChains) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int Dead1 = B.sbin(Op::SMul, V1, V1);
  B.sbin(Op::SAdd, Dead1, V1); // dead
  B.sstore(B.addr(K.C, 0), V1);
  Function F = B.take({K.A, K.C});
  dce(F);
  EXPECT_EQ(countInsts(F), 2);
}

TEST(CirPasses, StoreToLoadForwardingBecomesShuffle) {
  // The Fig. 11/12 scenario: two masked stores followed by a load that
  // gathers lanes from both stored vectors; after the pass the reload is a
  // shuffle and no load instruction remains.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  B.vstore(B.addr(K.C, 0), V1, 3);  // C[0..2] = A[0..2]
  B.vstore(B.addr(K.C, 3), V2, 2);  // C[3..4] = A[4..5]
  int Re = B.vload(B.addr(K.C, 1), 4); // lanes from both stores
  int Double_ = B.vbin(Op::VAdd, Re, Re);
  B.vstore(B.addr(K.C, 8), Double_, 4);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Loads = 0, Shuffles = 0;
  for (const Node &N : F.Body) {
    const Inst &I = std::get<Inst>(N);
    Loads += I.K == Op::VLoad && I.Address.Buf == K.C;
    Shuffles += I.K == Op::VShuffle;
  }
  EXPECT_EQ(Loads, 0) << F.str();
  EXPECT_EQ(Shuffles, 1) << F.str();
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[8], 2.0 * K.ABuf[1]);
  EXPECT_DOUBLE_EQ(K.CBuf[9], 2.0 * K.ABuf[2]);
  EXPECT_DOUBLE_EQ(K.CBuf[10], 2.0 * K.ABuf[4]);
  EXPECT_DOUBLE_EQ(K.CBuf[11], 2.0 * K.ABuf[5]);
}

TEST(CirPasses, ScalarForwardingAndExtract) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  B.vstore(B.addr(K.C, 0), V1, 4);
  int S = B.sload(B.addr(K.C, 2)); // becomes extract lane 2 of V1
  int D = B.sbin(Op::SAdd, S, S);
  B.sstore(B.addr(K.C, 4), D);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  bool SawExtract = false;
  for (const Node &N : F.Body) {
    const Inst &I = std::get<Inst>(N);
    EXPECT_NE(I.K, Op::SLoad);
    SawExtract |= I.K == Op::VExtract;
  }
  EXPECT_TRUE(SawExtract);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[4], 2.0 * K.ABuf[2]);
}

TEST(CirPasses, DeadStoreElimination) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int V2 = B.sload(B.addr(K.A, 1));
  B.sstore(B.addr(K.C, 0), V1); // dead: overwritten below, never read
  B.sstore(B.addr(K.C, 0), V2);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Stores = 0;
  for (const Node &N : F.Body)
    Stores += isStore(std::get<Inst>(N).K);
  EXPECT_EQ(Stores, 1);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], K.ABuf[1]);
}

TEST(CirPasses, RedundantLoadReuse) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 0), 4); // redundant
  int S = B.vbin(Op::VAdd, V1, V2);
  B.vstore(B.addr(K.C, 0), S, 4);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Loads = 0;
  for (const Node &N : F.Body)
    Loads += std::get<Inst>(N).K == Op::VLoad;
  EXPECT_EQ(Loads, 1);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0]);
}

//===----------------------------------------------------------------------===//
// Division by reciprocals.
//===----------------------------------------------------------------------===//

int countOp(const std::vector<Node> &Body, Op K) {
  int N = 0;
  for (const Node &Nd : Body)
    if (const auto *I = std::get_if<Inst>(&Nd))
      N += I->K == K;
    else
      N += countOp(std::get<Loop>(Nd).Body, K);
  return N;
}

/// Applies reciprocalDivide to a copy of \p F, checks that the copy
/// verifies and that its outputs are within 2 ulp of \p F's, and returns it.
Function reciprocalDivided(const Function &F, Kernel2 &K) {
  Function G = F;
  reciprocalDivide(G);
  std::vector<double> RefA = K.ABuf, RefC = K.CBuf;
  interpretVerified(F, {{K.A, RefA.data()}, {K.C, RefC.data()}});
  interpretVerified(G, K.buffers());
  for (size_t I = 0; I < RefC.size(); ++I) {
    double Ulp = std::nextafter(std::fabs(RefC[I]), INFINITY) -
                 std::fabs(RefC[I]);
    EXPECT_LE(std::fabs(K.CBuf[I] - RefC[I]), 2 * Ulp) << "C[" << I << "]";
  }
  return G;
}

/// The instruction that defines \p R in \p Body, or null.
const Inst *defOf(const std::vector<Node> &Body, int R) {
  for (const Node &N : Body)
    if (const auto *I = std::get_if<Inst>(&N); I && I->Dst == R)
      return I;
  return nullptr;
}

TEST(CirReciprocal, TwoDivisionsShareOneReciprocal) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int D = B.sload(B.addr(K.A, 5));
  int X = B.sload(B.addr(K.A, 1));
  int Y = B.sload(B.addr(K.A, 2));
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SDiv, X, D));
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SDiv, Y, D));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  EXPECT_EQ(countOp(G.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(G.Body, Op::SMul), 2);
  // r = 1 / d sits right after d's load.
  size_t At = 0;
  while (At + 1 < G.Body.size() && std::get<Inst>(G.Body[At]).Dst != D)
    ++At;
  ASSERT_LT(At + 1, G.Body.size());
  const Inst &R = std::get<Inst>(G.Body[At + 1]);
  EXPECT_EQ(R.K, Op::SDiv);
  EXPECT_EQ(R.B, D);
  const Inst *One = defOf(G.Body, R.A);
  ASSERT_NE(One, nullptr);
  EXPECT_EQ(One->K, Op::SConst);
  EXPECT_EQ(One->Imm, 1.0);
}

TEST(CirReciprocal, ExistingReciprocalIsReused) {
  // Rule R1's form: t = 1 / d is already there, and d divides x and y.
  Kernel2 K;
  FuncBuilder B("k", 1);
  int D = B.sload(B.addr(K.A, 5));
  int One = B.sconst(1.0);
  int T = B.sbin(Op::SDiv, One, D);
  int Y = B.sload(B.addr(K.A, 2));
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SMul, T, Y));
  int X = B.sload(B.addr(K.A, 1));
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SDiv, X, D));
  B.sstore(B.addr(K.C, 2), B.sbin(Op::SDiv, Y, D));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  EXPECT_EQ(countOp(G.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(G.Body, Op::SMul), 3);

  // The reciprocal alone pulls no division behind it: d = sqrt(..) is
  // ready after x, so x / d stays beside 1 / d (potrf's last diagonal).
  Kernel2 K2;
  FuncBuilder B2("k", 1);
  int X2 = B2.sload(B2.addr(K2.A, 1));
  int D2 = B2.ssqrt(B2.sload(B2.addr(K2.A, 5)));
  int T2 = B2.sbin(Op::SDiv, B2.sconst(1.0), D2);
  B2.sstore(B2.addr(K2.C, 0), T2);
  B2.sstore(B2.addr(K2.C, 1), B2.sbin(Op::SDiv, X2, D2));
  Function F2 = B2.take({K2.A, K2.C});
  EXPECT_EQ(reciprocalDivided(F2, K2).str(), F2.str());
}

TEST(CirReciprocal, DivisorReadyLastStaysADivision) {
  // sqrt(d) is ready a square-root latency after x: 1 / sqrt(d) would put
  // a multiply after the square root on the only chain there is.
  Kernel2 K;
  FuncBuilder B("k", 1);
  int X = B.sload(B.addr(K.A, 1));
  int D = B.ssqrt(B.sload(B.addr(K.A, 5)));
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SDiv, X, D));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  EXPECT_EQ(G.str(), F.str());

  // The mirror image: the numerator is the late one, so its division moves
  // off the chain even though d divides nothing else.
  Kernel2 K2;
  FuncBuilder B2("k", 1);
  int X2 = B2.ssqrt(B2.sload(B2.addr(K2.A, 1)));
  int D2 = B2.sload(B2.addr(K2.A, 5));
  B2.sstore(B2.addr(K2.C, 0), B2.sbin(Op::SDiv, X2, D2));
  Function F2 = B2.take({K2.A, K2.C});
  Function G2 = reciprocalDivided(F2, K2);
  EXPECT_EQ(countOp(G2.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(G2.Body, Op::SMul), 1);
}

TEST(CirReciprocal, ConstantOneNumeratorIsLeftAlone) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int One = B.sconst(1.0);
  int D = B.sload(B.addr(K.A, 5));
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SDiv, One, D));
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SAdd, One, D));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  EXPECT_EQ(G.str(), F.str());
}

TEST(CirReciprocal, DivisionByConstantOneStays) {
  // (x + y) / 1 beside two divisions by d: the top-level constant 1 moves
  // to the entry as the reciprocals' numerator and is never a divisor.
  Kernel2 K;
  FuncBuilder B("k", 1);
  int X = B.sload(B.addr(K.A, 1));
  int Y = B.sload(B.addr(K.A, 2));
  int D = B.sload(B.addr(K.A, 5));
  int One = B.sconst(1.0);
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SDiv, B.sbin(Op::SAdd, X, Y), One));
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SDiv, X, D));
  B.sstore(B.addr(K.C, 2), B.sbin(Op::SDiv, Y, D));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  EXPECT_EQ(countOp(G.Body, Op::SDiv), 2);
  EXPECT_EQ(countOp(G.Body, Op::SMul), 2);
  EXPECT_EQ(std::get<Inst>(G.Body.front()).Dst, One);
}

TEST(CirReciprocal, ProductByAReciprocalIsDecidedAfresh) {
  // x * (1 / d), as an earlier run or rule R1 left it, with d = sqrt(..)
  // ready after x: it goes back to x / d, the shorter chain.
  Kernel2 K;
  FuncBuilder B("k", 1);
  int X = B.sload(B.addr(K.A, 1));
  int D = B.ssqrt(B.sload(B.addr(K.A, 5)));
  int R = B.sbin(Op::SDiv, B.sconst(1.0), D);
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SMul, X, R));
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  dce(G);
  EXPECT_EQ(countOp(G.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(G.Body, Op::SMul), 0);

  // A second run changes nothing the first decided.
  Kernel2 K2;
  FuncBuilder B2("k", 1);
  int D2 = B2.sload(B2.addr(K2.A, 5));
  for (int E = 0; E < 3; ++E)
    B2.sstore(B2.addr(K2.C, E),
              B2.sbin(Op::SDiv, B2.sload(B2.addr(K2.A, E)), D2));
  Function F2 = B2.take({K2.A, K2.C});
  Function Once = reciprocalDivided(F2, K2);
  Function Twice = reciprocalDivided(Once, K2);
  dce(Twice);
  EXPECT_EQ(countOp(Twice.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(Twice.Body, Op::SMul), 3);
  EXPECT_EQ(countInsts(Twice), countInsts(Once));
}

TEST(CirReciprocal, CseDividesByReciprocals) {
  // The pass runs inside every cse, after value numbering has joined the
  // two sums into one divisor d; each alone is ready after its numerator.
  Kernel2 K;
  FuncBuilder B("k", 1);
  int L = B.sload(B.addr(K.A, 4));
  int U = B.sload(B.addr(K.A, 5));
  int D1 = B.sbin(Op::SAdd, L, U);
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SDiv, B.sload(B.addr(K.A, 1)), D1));
  int D2 = B.sbin(Op::SAdd, L, U);
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SDiv, B.sload(B.addr(K.A, 2)), D2));
  Function F = B.take({K.A, K.C});
  cse(F);
  EXPECT_EQ(countOp(F.Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(F.Body, Op::SMul), 2);
}

TEST(CirReciprocal, LoopDivisorIsNotHoisted) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int IV = B.beginLoop(0, 4, 1);
  int D = B.sload(B.addr(K.A, 0, {{IV, 5}}));
  int X = B.sload(B.addr(K.A, 1, {{IV, 4}}));
  int Y = B.sload(B.addr(K.A, 2, {{IV, 4}}));
  B.sstore(B.addr(K.C, 0, {{IV, 4}}), B.sbin(Op::SDiv, X, D));
  B.sstore(B.addr(K.C, 1, {{IV, 4}}), B.sbin(Op::SDiv, Y, D));
  B.endLoop();
  Function F = B.take({K.A, K.C});
  Function G = reciprocalDivided(F, K);
  const Loop *L = nullptr;
  int TopDivs = 0;
  for (const Node &N : G.Body)
    if (const auto *I = std::get_if<Inst>(&N))
      TopDivs += I->K == Op::SDiv;
    else
      L = &std::get<Loop>(N);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(TopDivs, 0);
  EXPECT_EQ(countOp(L->Body, Op::SDiv), 1);
  EXPECT_EQ(countOp(L->Body, Op::SMul), 2);
}

TEST(CirPasses, OptimizePreservesSemantics) {
  // A mixed kernel exercised before/after the full pipeline.
  for (int Nu : {1, 4}) {
    Kernel2 K;
    FuncBuilder B("k", Nu);
    if (Nu == 1) {
      int IV = B.beginLoop(0, 4, 1);
      int V = B.sload(B.addr(K.A, 0, {{IV, 4}}));
      int W = B.sload(B.addr(K.A, 0, {{IV, 4}}));
      int M = B.sbin(Op::SMul, V, W);
      B.sstore(B.addr(K.C, 0, {{IV, 4}}), M);
      B.endLoop();
    } else {
      int V = B.vload(B.addr(K.A, 0), 4);
      B.vstore(B.addr(K.C, 0), V, 4);
      int R = B.vload(B.addr(K.C, 0), 4);
      int M = B.vbin(Op::VMul, R, R);
      B.vstore(B.addr(K.C, 4), M, 4);
    }
    Function F = B.take({K.A, K.C});
    // Reference run on separate buffers bound to the same operands.
    std::vector<double> RefA = K.ABuf, RefC = K.CBuf;
    std::map<const Operand *, double *> RefBufs = {{K.A, RefA.data()},
                                                   {K.C, RefC.data()}};
    interpretVerified(F, RefBufs);
    slingen::optimizeStage3(F, GenOptions());
    interpretVerified(F, K.buffers());
    EXPECT_EQ(RefC, K.CBuf) << "nu=" << Nu;
  }
}

//===----------------------------------------------------------------------===//
// C emitter (textual checks; compile-and-run is covered by the JIT tests).
//===----------------------------------------------------------------------===//

TEST(CEmitter, ScalarKernelText) {
  Kernel2 K;
  FuncBuilder B("saxpyish", 1);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  int M = B.sbin(Op::SMul, V, V);
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), M);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  F.ParamWritable = {false, true};
  std::string C = emitTranslationUnit(F);
  EXPECT_NE(C.find("void saxpyish(const double *__restrict A, "
                   "double *__restrict C)"),
            std::string::npos)
      << C;
  EXPECT_NE(C.find("for (int i0 = 0; i0 < 16; i0 += 1)"), std::string::npos);
  EXPECT_EQ(C.find("immintrin"), std::string::npos);
}

TEST(CEmitter, VectorKernelUsesIntrinsics) {
  Kernel2 K;
  FuncBuilder B("vk", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 3); // masked
  int S = B.vbin(Op::VAdd, V1, V2);
  int Sh = B.vshuffle(S, S, {2, 3, 0, 1});
  int Bl = B.vshuffle(V1, V2, {0, 5, 2, 7});
  int Fma = B.vfma(S, Sh, Bl);
  B.vstore(B.addr(K.C, 0), Fma, 4);
  B.vstore(B.addr(K.C, 8), S, 2);
  Function F = B.take({K.A, K.C});
  std::string C = emitTranslationUnit(F);
  EXPECT_NE(C.find("_mm256_loadu_pd"), std::string::npos) << C;
  EXPECT_NE(C.find("_mm256_maskload_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_maskstore_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_permute4x64_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_blend_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_fmadd_pd"), std::string::npos);
  EXPECT_NE(C.find("mk3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// FMA contraction and runtime-masked lane-strided ops.
//===----------------------------------------------------------------------===//

/// Opcode histogram over the whole function body.
std::map<Op, int> opCounts(const Function &F) {
  std::map<Op, int> C;
  std::function<void(const std::vector<Node> &)> Walk =
      [&](const std::vector<Node> &Body) {
        for (const Node &N : Body) {
          if (const auto *I = std::get_if<Inst>(&N))
            ++C[I->K];
          else
            Walk(std::get<Loop>(N).Body);
        }
      };
  Walk(F.Body);
  return C;
}

TEST(CirPasses, ContractFmaFusesMulAddAndMulSub) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  int V3 = B.vload(B.addr(K.A, 8), 4);
  int M1 = B.vbin(Op::VMul, V1, V2);
  int S1 = B.vbin(Op::VAdd, M1, V3); // -> VFma(V1, V2, V3)
  B.vstore(B.addr(K.C, 0), S1, 4);
  int M2 = B.vbin(Op::VMul, V1, V3);
  int S2 = B.vbin(Op::VSub, V2, M2); // c - a*b -> VFnma(V1, V3, V2)
  B.vstore(B.addr(K.C, 4), S2, 4);
  Function F = B.take({K.A, K.C});
  contractFma(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VMul], 0) << F.str();
  EXPECT_EQ(C[Op::VAdd], 0) << F.str();
  EXPECT_EQ(C[Op::VSub], 0) << F.str();
  EXPECT_EQ(C[Op::VFma], 1) << F.str();
  EXPECT_EQ(C[Op::VFnma], 1) << F.str();
  interpretVerified(F, K.buffers());
  for (int L = 0; L < 4; ++L) {
    EXPECT_DOUBLE_EQ(K.CBuf[L],
                     std::fma(K.ABuf[L], K.ABuf[4 + L], K.ABuf[8 + L]));
    EXPECT_DOUBLE_EQ(K.CBuf[4 + L],
                     std::fma(-K.ABuf[L], K.ABuf[8 + L], K.ABuf[4 + L]));
  }
}

TEST(CirPasses, ContractFmaLeavesMultiUseMulAlone) {
  // The product feeds both an add and a store: fusing would change the
  // stored value's rounding, so the mul must survive and the add must not
  // be contracted.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  int M = B.vbin(Op::VMul, V1, V2);
  int S = B.vbin(Op::VAdd, M, V1);
  B.vstore(B.addr(K.C, 0), M, 4);
  B.vstore(B.addr(K.C, 4), S, 4);
  Function F = B.take({K.A, K.C});
  contractFma(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VMul], 1) << F.str();
  EXPECT_EQ(C[Op::VAdd], 1) << F.str();
  EXPECT_EQ(C[Op::VFma], 0) << F.str();
}

TEST(CirInterp, MaskedStridedOpsHonorActiveLanes) {
  // Lane-strided masked load/store against a 4-element-stride column;
  // active_ = 2 must read/write lanes {0, 1} only and zero dead load lanes.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V = B.vloadStridedMasked(B.addr(K.A, 0), 4, 4);
  int D = B.vbin(Op::VAdd, V, V);
  B.vstoreStridedMasked(B.addr(K.C, 0), D, 4, 4);
  Function F = B.take({K.A, K.C});
  F.HasTailMask = true;
  interpretVerified(F, K.buffers(), /*Active=*/2);
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0]);
  EXPECT_DOUBLE_EQ(K.CBuf[4], 2.0 * K.ABuf[4]);
  EXPECT_DOUBLE_EQ(K.CBuf[8], 0.0) << "inactive lane stored";
  EXPECT_DOUBLE_EQ(K.CBuf[12], 0.0) << "inactive lane stored";
}

TEST(CEmitter, MaskedOpsTakeActiveParamPerIsa) {
  // Each width lowers the runtime tail mask differently: AVX-512 k-masks,
  // AVX2 compare-derived integer masks, SSE2 lane-split scalar moves. All
  // gain the trailing `int active_` parameter.
  for (int Nu : {2, 4, 8}) {
    Kernel2 K;
    FuncBuilder B("mk", Nu);
    int V = B.vloadStridedMasked(B.addr(K.A, 0), 4, Nu);
    B.vstoreStridedMasked(B.addr(K.C, 0), V, 4, Nu);
    Function F = B.take({K.A, K.C});
    F.HasTailMask = true;
    std::string C = emitTranslationUnit(F);
    EXPECT_NE(C.find("int active_"), std::string::npos) << C;
    if (Nu == 8) {
      EXPECT_NE(C.find("kact_"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm512_mask_i64gather_pd"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm512_mask_i64scatter_pd"), std::string::npos) << C;
    } else if (Nu == 4) {
      EXPECT_NE(C.find("mact_"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm256_mask_i64gather_pd"), std::string::npos) << C;
    } else {
      EXPECT_NE(C.find("active_ > 1"), std::string::npos) << C;
    }
  }
}

//===----------------------------------------------------------------------===//
// Fresh-zero accumulators, scalar FMAs, per-register widths.
//===----------------------------------------------------------------------===//

TEST(CirPasses, CseFoldsFreshZeroAccumulators) {
  // C[0:4] = 0 + A[0:4]; C[4:8] = fma(A, A, 0); C[8] = 0 + A[8].
  Kernel2 K;
  FuncBuilder B("k", 4);
  int VZ = B.vconst(0.0);
  int V = B.vload(B.addr(K.A, 0), 4);
  B.vstore(B.addr(K.C, 0), B.vbin(Op::VAdd, VZ, V), 4);
  B.vstore(B.addr(K.C, 4), B.vfma(V, V, VZ), 4);
  int SZ = B.sconst(0.0);
  int S = B.sload(B.addr(K.A, 8));
  B.sstore(B.addr(K.C, 8), B.sbin(Op::SAdd, SZ, S));
  Function F = B.take({K.A, K.C});
  cse(F);
  dce(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VAdd], 0) << F.str();
  EXPECT_EQ(C[Op::VFma], 0) << F.str();
  EXPECT_EQ(C[Op::VMul], 1) << F.str();
  EXPECT_EQ(C[Op::SAdd], 0) << F.str();
  EXPECT_EQ(C[Op::VConst] + C[Op::SConst], 0) << F.str();
  interpretVerified(F, K.buffers());
  for (int L = 0; L < 4; ++L) {
    EXPECT_EQ(K.CBuf[L], K.ABuf[L]);
    EXPECT_EQ(K.CBuf[4 + L], K.ABuf[L] * K.ABuf[L]);
  }
  EXPECT_EQ(K.CBuf[8], K.ABuf[8]);
}

TEST(CirPasses, FreshZeroFoldKeepsANegativeZero) {
  // The fold's one semantic change: 0.0 + -0.0 is +0.0, the folded form
  // passes -0.0 through. The interpreter runs the folded IR, so it and the
  // compiled kernel agree either way. Only +0.0 (what the tiler creates)
  // counts as a fresh zero; an add of -0.0 is left alone.
  for (double Zero : {0.0, -0.0}) {
    Kernel2 K;
    K.ABuf[0] = -0.0;
    FuncBuilder B("k", 1);
    int Z = B.sconst(Zero);
    int X = B.sload(B.addr(K.A, 0));
    B.sstore(B.addr(K.C, 0), B.sbin(Op::SAdd, Z, X));
    Function F = B.take({K.A, K.C});
    interpretVerified(F, K.buffers());
    const double Unfolded = K.CBuf[0];
    cse(F);
    interpretVerified(F, K.buffers());
    EXPECT_EQ(opCounts(F)[Op::SAdd], std::signbit(Zero) ? 1 : 0) << F.str();
    EXPECT_EQ(std::signbit(Unfolded), std::signbit(Zero));
    EXPECT_TRUE(std::signbit(K.CBuf[0]));
  }
}

TEST(CirPasses, CseKeepsWidthsAndSignedZerosApart) {
  // Equal immediates of different widths (or signs) are different values.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int Y = B.vconst(1.0, 4);
  int X = B.vconst(1.0, 2);
  int P = B.sconst(0.0), N = B.sconst(-0.0);
  B.vstore(B.addr(K.C, 0), Y, 4);
  B.vstore(B.addr(K.C, 4), X, 2);
  B.sstore(B.addr(K.C, 6), P);
  B.sstore(B.addr(K.C, 7), N);
  Function F = B.take({K.A, K.C});
  cse(F);
  EXPECT_EQ(opCounts(F)[Op::VConst], 2) << F.str();
  EXPECT_EQ(opCounts(F)[Op::SConst], 2) << F.str();
  interpretVerified(F, K.buffers());
  EXPECT_FALSE(std::signbit(K.CBuf[6]));
  EXPECT_TRUE(std::signbit(K.CBuf[7]));
}

TEST(CirPasses, ContractFmaFusesScalarChains) {
  // acc = a0*b0 + a1*b1 - a2*b2 with FMA rounding on an AVX function.
  Kernel2 K;
  FuncBuilder B("k", 4);
  auto Ld = [&](int I) { return B.sload(B.addr(K.A, I)); };
  int Acc = B.sbin(Op::SMul, Ld(0), Ld(1));
  Acc = B.sbin(Op::SAdd, Acc, B.sbin(Op::SMul, Ld(2), Ld(3)));
  Acc = B.sbin(Op::SSub, Acc, B.sbin(Op::SMul, Ld(4), Ld(5)));
  B.sstore(B.addr(K.C, 0), Acc);
  Function F = B.take({K.A, K.C});
  contractFma(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::SFma], 1) << F.str();
  EXPECT_EQ(C[Op::SFnma], 1) << F.str();
  EXPECT_EQ(C[Op::SMul], 1) << F.str();
  interpretVerified(F, K.buffers());
  const std::vector<double> &A = K.ABuf;
  EXPECT_EQ(K.CBuf[0],
            std::fma(-A[4], A[5], std::fma(A[2], A[3], A[0] * A[1])));
}

TEST(CirInterp, ReduceAddIsAHalvingTree) {
  // Lanes chosen so every association order rounds differently.
  Kernel2 K;
  K.ABuf = {1e16, 1.0, -1e16, 1.0, 3.0, -1.0, 0.5, 0.25,
            0,    0,   0,     0,   0,   0,    0,   0};
  FuncBuilder B("k", 8);
  int Z = B.vload(B.addr(K.A, 0), 8);
  int Y = B.vload(B.addr(K.A, 0), 4, 4);
  B.sstore(B.addr(K.C, 0), B.vreduceAdd(Z));
  B.sstore(B.addr(K.C, 1), B.vreduceAdd(Y));
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  const std::vector<double> &A = K.ABuf;
  EXPECT_EQ(K.CBuf[0], ((A[0] + A[4]) + (A[2] + A[6])) +
                           ((A[1] + A[5]) + (A[3] + A[7])));
  EXPECT_EQ(K.CBuf[1], (A[0] + A[2]) + (A[1] + A[3]));
}

TEST(CirInterp, ShuffleAcrossWidths) {
  // A 2-lane result from 4-lane sources and a 4-lane result from 2-lane
  // ones (new lanes zero).
  Kernel2 K;
  FuncBuilder B("k", 4);
  int Y = B.vload(B.addr(K.A, 0), 4);    // 1 2 3 4
  int X = B.vload(B.addr(K.A, 4), 2, 2); // 5 6
  int Narrow = B.vshuffle(Y, Y, {3, 1});
  int Wide = B.vshuffle(X, X, {1, -1, 2, 0});
  B.vstore(B.addr(K.C, 0), Narrow, 2);
  B.vstore(B.addr(K.C, 4), Wide, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  EXPECT_EQ(K.CBuf[0], 4.0);
  EXPECT_EQ(K.CBuf[1], 2.0);
  EXPECT_EQ(K.CBuf[4], 6.0);
  EXPECT_EQ(K.CBuf[5], 0.0);
  EXPECT_EQ(K.CBuf[6], 5.0);
  EXPECT_EQ(K.CBuf[7], 5.0);
}

TEST(CirPasses, ForwardingAcrossWidthsBecomesAShuffle) {
  // A 4-lane store reloaded as two lanes: no memory round trip.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int Y = B.vload(B.addr(K.A, 0), 4);
  int S = B.vbin(Op::VAdd, Y, Y);
  B.vstore(B.addr(K.C, 0), S, 4);
  int X = B.vload(B.addr(K.C, 2), 2, 2);
  B.vstore(B.addr(K.C, 8), X, 2);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  int Loads = 0;
  for (const Node &N : F.Body)
    if (const auto *I = std::get_if<Inst>(&N))
      Loads += I->K == Op::VLoad;
  EXPECT_EQ(Loads, 1) << F.str();
  interpretVerified(F, K.buffers());
  EXPECT_EQ(K.CBuf[8], 6.0);
  EXPECT_EQ(K.CBuf[9], 8.0);
}

TEST(CirPasses, ReloadOfScalarStoresIsAssembled) {
  // Two scalar stores reloaded as one vector would stall store forwarding;
  // the load/store analysis builds the vector in registers instead.
  Kernel2 K;
  FuncBuilder B("k", 2);
  int A0 = B.sload(B.addr(K.A, 0));
  int A1 = B.sload(B.addr(K.A, 5));
  B.sstore(B.addr(K.C, 0), B.sbin(Op::SAdd, A0, A1));
  B.sstore(B.addr(K.C, 1), B.sbin(Op::SMul, A0, A1));
  int V = B.vload(B.addr(K.C, 0), 2);
  B.vstore(B.addr(K.C, 4), B.vbin(Op::VAdd, V, V), 2);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  EXPECT_EQ(opCounts(F)[Op::VLoad], 0) << F.str();
  interpretVerified(F, K.buffers());
  EXPECT_EQ(K.CBuf[4], 2 * (1.0 + 6.0));
  EXPECT_EQ(K.CBuf[5], 2 * (1.0 * 6.0));
}

TEST(CEmitter, NarrowRegistersUseTheirOwnIntrinsics) {
  // Inside an AVX-512 function: 2- and 4-lane registers get SSE/AVX types,
  // lane extracts stay in registers, scalar FMAs call fma().
  Kernel2 K;
  FuncBuilder B("k", 8);
  int Y = B.vload(B.addr(K.A, 0), 3, 4);
  int X = B.vload(B.addr(K.A, 4), 2, 2);
  int E = B.vextract(Y, 2);
  int F2 = B.vfma(X, X, B.vbroadcast(E, 2));
  B.vstore(B.addr(K.C, 0), F2, 2);
  B.sstore(B.addr(K.C, 2), E);
  Function F = B.take({K.A, K.C});
  std::string C = emitFunction(F);
  EXPECT_NE(C.find("__m256d r0;"), std::string::npos) << C;
  EXPECT_NE(C.find("__m128d r1;"), std::string::npos) << C;
  EXPECT_NE(C.find("_mm256_maskload_pd(A + 0, mk3)"), std::string::npos)
      << C;
  EXPECT_NE(C.find("_mm_fmadd_pd"), std::string::npos) << C;
  EXPECT_EQ(C.find("__m512d"), std::string::npos) << C;
  EXPECT_EQ(C.find("t2_["), std::string::npos) << C;
}

} // namespace
