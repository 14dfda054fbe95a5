//===- tests/verify_test.cpp - C-IR verifier: mutations + emission oracle -===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Two halves. The seeded-mutation matrix takes known-good IR (hand-built
// and real widened emissions), applies one deliberate corruption at a time,
// and asserts the verifier rejects it with the *expected* kind -- so every
// check in cir/Verify.cpp is pinned by a test that would fail if it were
// deleted. The oracle half asserts the verifier runs clean over the real
// generation pipeline (scalar result, scalar recompile, the widened batch
// block and tail, post-FMA-contraction) and that verifyEmittedIR -- the service
// gate -- accepts the same emissions it compiles and rejects corrupted IR.
//===----------------------------------------------------------------------===//

#include "cir/CIR.h"
#include "cir/Passes.h"
#include "cir/Verify.h"
#include "cir/Widen.h"
#include "expr/Program.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "slingen/SLinGen.h"

#include <gtest/gtest.h>

using namespace slingen;
using namespace slingen::cir;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

void collectInsts(std::vector<Node> &Body, std::vector<Inst *> &Out) {
  for (Node &N : Body) {
    if (auto *I = std::get_if<Inst>(&N))
      Out.push_back(I);
    else
      collectInsts(std::get<Loop>(N).Body, Out);
  }
}

/// Pre-order pointers to every instruction: the mutation surface.
std::vector<Inst *> insts(Function &F) {
  std::vector<Inst *> V;
  collectInsts(F.Body, V);
  return V;
}

void collectLoops(std::vector<Node> &Body, std::vector<Loop *> &Out) {
  for (Node &N : Body)
    if (auto *L = std::get_if<Loop>(&N)) {
      Out.push_back(L);
      collectLoops(L->Body, Out);
    }
}

std::vector<Loop *> loops(Function &F) {
  std::vector<Loop *> V;
  collectLoops(F.Body, V);
  return V;
}

testing::AssertionResult verifiesClean(const Function &F) {
  std::vector<VerifyError> Errors = verify(F);
  if (Errors.empty())
    return testing::AssertionSuccess();
  auto R = testing::AssertionFailure() << F.Name << " failed verification:";
  for (const VerifyError &E : Errors)
    R << "\n  " << E.str();
  return R;
}

/// The mutation-matrix assertion: the corrupted function must report the
/// expected kind (other collateral kinds may ride along -- one corruption
/// can trip several checks -- but the targeted one must be present).
testing::AssertionResult rejectsWith(const Function &F, VerifyKind Want) {
  std::vector<VerifyError> Errors = verify(F);
  if (Errors.empty())
    return testing::AssertionFailure()
           << F.Name << ": mutation not caught (verified clean)";
  for (const VerifyError &E : Errors)
    if (E.Kind == Want)
      return testing::AssertionSuccess();
  auto R = testing::AssertionFailure()
           << F.Name << ": expected kind '" << verifyKindName(Want)
           << "', got:";
  for (const VerifyError &E : Errors)
    R << "\n  " << E.str();
  return R;
}

/// A tiny known-good scalar kernel: C[i] = A[i] * A[i] over a 4x4 pair.
struct ScalarKernel {
  Program P;
  Operand *A, *C;
  Function F;

  ScalarKernel() {
    A = P.addOperand("A", 4, 4);
    C = P.addOperand("C", 4, 4);
    C->IO = IOKind::Out;
    FuncBuilder B("sk", 1);
    int IV = B.beginLoop(0, 16, 1);
    int V = B.sload(B.addr(A, 0, {{IV, 1}}));
    int M = B.sbin(Op::SMul, V, V);
    B.sstore(B.addr(C, 0, {{IV, 1}}), M);
    B.endLoop();
    F = B.take({A, C});
  }
};

/// A tiny known-good instance-widened kernel (the shape cir/Widen.h
/// produces: Nu lanes of independent instances, LocalVecWidth == Nu, local
/// addresses scaled by Nu). Params are sized Rows*Cols per instance; the
/// widened extent is Nu instances.
struct WideKernel {
  static constexpr int Nu = 4;
  Program P;
  Operand *A, *C, *T;
  Function F;

  WideKernel() {
    A = P.addOperand("A", 2, 2);
    C = P.addOperand("C", 2, 2);
    C->IO = IOKind::Out;
    T = P.addOperand("T", 2, 2);
    FuncBuilder B("wk", Nu);
    // Contiguous AoSoA layout: element e of lane l at offset e*Nu + l.
    int V0 = B.vload(B.addr(A, 0), Nu);
    int V1 = B.vload(B.addr(A, Nu), Nu);
    int M = B.vbin(Op::VMul, V0, V1);
    B.vstore(B.addr(T, 0), M, Nu);
    int V2 = B.vload(B.addr(T, 0), Nu);
    int S = B.vbin(Op::VAdd, V2, V0);
    int Sh = B.vshuffle(S, V0, {0, 1, 2, 3});
    int E = B.vextract(Sh, 0);
    int W = B.vbroadcast(E);
    B.vstore(B.addr(C, 0), W, Nu);
    B.vstore(B.addr(C, Nu), S, Nu);
    F = B.take({A, C});
    F.Locals = {T};
    F.LocalVecWidth = Nu; // instance-widened contract
  }
};

//===----------------------------------------------------------------------===//
// The real pipeline: scalar generation + every widened batch variant.
//===----------------------------------------------------------------------===//

/// Keeps the owners alive alongside the functions: GenResult/
/// ScalarRecompile own the programs the Operand pointers reference, and
/// WidenedFunction owns its renamed local clones.
struct Emissions {
  GenOptions O;
  GenResult R;
  ScalarRecompile Pre;      ///< the scalar recompile the wideners consume
  WidenedFunction FusedBlk; ///< widenAcrossInstancesFused (lane-strided)
  WidenedFunction FusedTail; ///< ...FusedMasked (runtime tail)
};

std::optional<Emissions> emitAll(const std::string &Source,
                                 const std::string &Name) {
  std::string Err;
  auto P = la::compileLa(Source, Err);
  if (!P) {
    ADD_FAILURE() << "LA error: " << Err;
    return std::nullopt;
  }
  Emissions E;
  E.O.Isa = &avxIsa();
  E.O.FuncName = Name;
  Generator G(std::move(*P), E.O);
  if (!G.isValid()) {
    ADD_FAILURE() << "generator error: " << G.error();
    return std::nullopt;
  }
  auto R = G.best(3);
  if (!R) {
    ADD_FAILURE() << "generation failed for " << Name;
    return std::nullopt;
  }
  E.R = std::move(*R);
  auto Pre = recompileScalar(E.R, &E.O);
  if (!Pre) {
    ADD_FAILURE() << "scalar recompile failed for " << Name;
    return std::nullopt;
  }
  E.Pre = std::move(*Pre);
  // Exactly what emission compiles (see deriveInstanceParallelFuncs).
  auto IP = deriveInstanceParallelFuncs(E.R, E.Pre);
  if (!IP) {
    ADD_FAILURE() << "widening failed for " << Name;
    return std::nullopt;
  }
  E.FusedBlk = std::move(IP->Block);
  E.FusedTail = std::move(IP->Tail);
  return E;
}

std::optional<Emissions> potrfEmissions() {
  return emitAll(la::potrfSource(8), "vp");
}

//===----------------------------------------------------------------------===//
// Oracle: real emissions verify clean
//===----------------------------------------------------------------------===//

TEST(VerifyOracle, PipelineEmissionsVerify) {
  for (auto &[Source, Name] :
       {std::pair<std::string, std::string>{la::potrfSource(8), "op"},
        {la::trsylSource(4), "ot"},
        {la::fig5Source(4, 4), "of"}}) {
    auto E = emitAll(Source, Name);
    ASSERT_TRUE(E);
    EXPECT_TRUE(verifiesClean(E->R.Func));
    EXPECT_TRUE(verifiesClean(E->Pre.Func));
    EXPECT_TRUE(verifiesClean(E->FusedBlk.Func));
    EXPECT_TRUE(verifiesClean(E->FusedTail.Func));
    EXPECT_TRUE(E->FusedTail.Func.HasTailMask);
  }
}

TEST(VerifyOracle, VerifyEmittedIRAcceptsEveryStrategy) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  for (BatchStrategy S :
       {BatchStrategy::ScalarLoop, BatchStrategy::InstanceParallelFused}) {
    auto VE = verifyEmittedIR(E->R, &E->O, /*Batched=*/true, S);
    EXPECT_FALSE(VE) << "strategy " << batchStrategyName(S) << ": "
                     << (VE ? VE->str() : "");
  }
  EXPECT_FALSE(verifyEmittedIR(E->R, &E->O, /*Batched=*/false,
                               BatchStrategy::Auto));
}

TEST(VerifyOracle, VerifyEmittedIRRejectsCorruptedResult) {
  // The shape the service's corrupt-ir fault point injects: a RegWidth
  // that no longer matches NumRegs.
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  E->R.Func.RegWidth.push_back(1);
  auto VE = verifyEmittedIR(E->R, &E->O, /*Batched=*/true,
                            BatchStrategy::InstanceParallelFused);
  ASSERT_TRUE(VE);
  EXPECT_EQ(VE->Kind, VerifyKind::BadRegister) << VE->str();
  EXPECT_EQ(VE->Fn, E->R.Func.Name);
}

TEST(VerifyOracle, ReportTextAndNames) {
  ScalarKernel K;
  std::string Ok = verifyReportText(K.F);
  EXPECT_NE(Ok.find("sk: ok ("), std::string::npos) << Ok;
  K.F.RegWidth.push_back(4);
  std::string Bad = verifyReportText(K.F);
  EXPECT_NE(Bad.find("bad-register"), std::string::npos) << Bad;
  auto First = verifyFirst(K.F);
  ASSERT_TRUE(First);
  EXPECT_EQ(First->Kind, VerifyKind::BadRegister);
  EXPECT_NE(First->str().find("sk[-1]: bad-register"), std::string::npos)
      << First->str();
  // Every kind has a stable kebab name (the event-log vocabulary).
  for (VerifyKind N :
       {VerifyKind::BadRegister, VerifyKind::UseBeforeDef, VerifyKind::BadArity,
        VerifyKind::WidthMismatch, VerifyKind::BadLane, VerifyKind::BadShuffle,
        VerifyKind::BadLoop, VerifyKind::UnknownBuffer,
        VerifyKind::ReadOnlyStore, VerifyKind::MaskOutsideTail,
        VerifyKind::MissingMask, VerifyKind::FmaMultiUse,
        VerifyKind::OutOfBounds, VerifyKind::Misaligned,
        VerifyKind::VectorInScalar})
    EXPECT_STRNE(verifyKindName(N), "?");
}

//===----------------------------------------------------------------------===//
// Mutation matrix: hand-built kernels
//===----------------------------------------------------------------------===//

TEST(VerifyMutation, BaselinesAreClean) {
  ScalarKernel S;
  EXPECT_TRUE(verifiesClean(S.F));
  WideKernel W;
  EXPECT_TRUE(verifiesClean(W.F));
}

TEST(VerifyMutation, DroppedDefinition) {
  ScalarKernel K;
  // Remove the load that defines the multiply's operand.
  auto *L = std::get_if<Loop>(&K.F.Body.front());
  ASSERT_TRUE(L);
  ASSERT_TRUE(std::holds_alternative<Inst>(L->Body.front()));
  L->Body.erase(L->Body.begin());
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::UseBeforeDef));
}

TEST(VerifyMutation, RegWidthSizeMismatch) {
  ScalarKernel K;
  K.F.RegWidth.push_back(1);
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadRegister));
}

TEST(VerifyMutation, OperandRegisterOutOfRange) {
  ScalarKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::SMul) {
      I->B = K.F.NumRegs + 3;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadRegister));
}

TEST(VerifyMutation, MissingOperand) {
  ScalarKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::SMul) {
      I->B = -1;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadArity));
}

TEST(VerifyMutation, FlippedRegisterWidth) {
  WideKernel K;
  // Declare the multiply's destination scalar: its def and every use now
  // disagree with the opcode signatures.
  for (Inst *I : insts(K.F))
    if (I->K == Op::VMul) {
      ASSERT_LT(I->Dst, static_cast<int>(K.F.RegWidth.size()));
      K.F.RegWidth[I->Dst] = 1;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::WidthMismatch));
}

TEST(VerifyMutation, WidenedOffsetEscapesBuffer) {
  ScalarKernel K;
  // Bump the store base past the 4x4 output: [16, 31] is outside [0, 16).
  for (Inst *I : insts(K.F))
    if (I->K == Op::SStore) {
      I->Address.Const += 16;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::OutOfBounds));
}

TEST(VerifyMutation, WidenedLoopBoundEscapesBuffer) {
  ScalarKernel K;
  // Same access, widened iteration space: i in [0, 32) overruns via the
  // affine term rather than the constant.
  ASSERT_FALSE(loops(K.F).empty());
  loops(K.F).front()->Hi = 32;
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::OutOfBounds));
}

TEST(VerifyMutation, NonpositiveLoopStep) {
  ScalarKernel K;
  ASSERT_FALSE(loops(K.F).empty());
  loops(K.F).front()->Step = 0;
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadLoop));
}

TEST(VerifyMutation, AddressReferencesOutOfScopeVariable) {
  ScalarKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::SLoad) {
      I->Address.Terms.push_back({K.F.NumVars + 1, 1});
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadLoop));
}

TEST(VerifyMutation, AccessToForeignBuffer) {
  ScalarKernel K;
  // D exists in the program but is neither a parameter nor a local.
  Operand *D = K.P.addOperand("D", 4, 4);
  for (Inst *I : insts(K.F))
    if (I->K == Op::SStore) {
      I->Address.Buf = D;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::UnknownBuffer));
}

TEST(VerifyMutation, StoreToReadOnlyParameter) {
  ScalarKernel K;
  // Declare the output read-only without touching the body: the store
  // through it becomes the violation.
  K.F.ParamWritable = {true, false};
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::ReadOnlyStore));
}

TEST(VerifyMutation, MisalignedLocalAccess) {
  WideKernel K;
  // Instance-widened local accesses must be Nu-element aligned (the
  // emitter's aligned-move contract). Offset 1 stays in bounds but breaks
  // the alignment invariant.
  for (Inst *I : insts(K.F))
    if (I->K == Op::VStore && I->Address.Buf == K.T) {
      I->Address.Const = 1;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::Misaligned));
}

TEST(VerifyMutation, ExtractLaneOutOfRange) {
  WideKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VExtract) {
      I->Lanes = WideKernel::Nu;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadLane));
}

TEST(VerifyMutation, LoadLaneCountOutOfRange) {
  WideKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VLoad) {
      I->Lanes = WideKernel::Nu + 1;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadLane));
}

TEST(VerifyMutation, ShuffleSelectorWrongSize) {
  WideKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VShuffle) {
      I->Sel.push_back(0);
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadShuffle));
}

TEST(VerifyMutation, ShuffleLaneOutOfRange) {
  WideKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VShuffle) {
      I->Sel[0] = 2 * WideKernel::Nu;
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadShuffle));
}

TEST(VerifyMutation, MaskedOpOutsideTailFunction) {
  WideKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VLoad && I->Address.Buf == K.A) {
      I->K = Op::VLoadStridedMasked;
      I->Stride = 4; // instance size of the 2x2 parameter
      break;
    }
  ASSERT_FALSE(K.F.HasTailMask);
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::MaskOutsideTail));
}

TEST(VerifyMutation, DuplicatedMultiplyInFma) {
  WideKernel K;
  // The contractFma contract: a folded multiply is deleted, so a same-pair
  // VFma coexisting with a still-used VMul means a multi-use mul was
  // contracted (a rounding change). Rebuild the tail of the block with the
  // forbidden shape: M = V0*V1 (still stored) and FMA(V0, V1, S).
  std::vector<Inst *> Is = insts(K.F);
  int V0 = -1, V1 = -1, M = -1, S = -1;
  for (Inst *I : Is)
    if (I->K == Op::VMul) {
      V0 = I->A;
      V1 = I->B;
      M = I->Dst;
    } else if (I->K == Op::VAdd) {
      S = I->Dst;
    }
  ASSERT_GE(M, 0);
  ASSERT_GE(S, 0);
  Inst Fma;
  Fma.K = Op::VFma;
  Fma.Dst = M; // reuse a vector register; M still has its store use
  Fma.A = V0;
  Fma.B = V1;
  Fma.C = S;
  K.F.Body.push_back(Fma);
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::FmaMultiUse));
}

//===----------------------------------------------------------------------===//
// Mutation matrix: real widened emissions
//===----------------------------------------------------------------------===//

TEST(VerifyMutation, FusedTailStripMaskGuard) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  // The widener set HasTailMask; stripping it leaves masked ops with no
  // `active_` guard to consume.
  E->FusedTail.Func.HasTailMask = false;
  EXPECT_TRUE(rejectsWith(E->FusedTail.Func, VerifyKind::MaskOutsideTail));
}

TEST(VerifyMutation, FusedTailUnmaskedParameterAccess) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  // Demote one masked load: an unmasked parameter access in the tail
  // kernel reads instances past `active_`.
  bool Mutated = false;
  for (Inst *I : insts(E->FusedTail.Func))
    if (I->K == Op::VLoadStridedMasked) {
      I->K = Op::VLoadStrided;
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated);
  EXPECT_TRUE(rejectsWith(E->FusedTail.Func, VerifyKind::MissingMask));
}

TEST(VerifyMutation, FusedTailWidenedLaneStride) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  // A lane stride that is not the instance size walks lanes out of the
  // `active_`-instance region the batch ABI guarantees.
  bool Mutated = false;
  for (Inst *I : insts(E->FusedTail.Func))
    if (I->K == Op::VLoadStridedMasked) {
      I->Stride += 1;
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated);
  EXPECT_TRUE(rejectsWith(E->FusedTail.Func, VerifyKind::OutOfBounds));
}

TEST(VerifyMutation, FusedBlockStrideEscapesBlock) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  // Unmasked fused block: widening the lane stride pushes the last lane
  // past the Nu-instance block extent.
  bool Mutated = false;
  for (Inst *I : insts(E->FusedBlk.Func))
    if (I->K == Op::VLoadStrided &&
        I->Address.Buf == E->FusedBlk.Func.Params.front()) {
      I->Stride *= 2;
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated);
  EXPECT_TRUE(rejectsWith(E->FusedBlk.Func, VerifyKind::OutOfBounds));
}

TEST(VerifyMutation, FusedBlockMisalignedLocal) {
  auto E = potrfEmissions();
  ASSERT_TRUE(E);
  // potrf8 carries compiler temporaries, which keep the AoSoA layout; knock
  // one contiguous local access off the Nu-element grid the widener
  // guarantees.
  bool Mutated = false;
  for (Inst *I : insts(E->FusedBlk.Func)) {
    if (!(I->K == Op::VLoad || I->K == Op::VStore) || !I->Address.Buf)
      continue;
    for (const Operand *L : E->FusedBlk.Func.Locals)
      if (I->Address.Buf == L) {
        I->Address.Const += 1;
        Mutated = true;
        break;
      }
    if (Mutated)
      break;
  }
  ASSERT_TRUE(Mutated) << "emission has no contiguous local access to mutate";
  EXPECT_TRUE(rejectsWith(E->FusedBlk.Func, VerifyKind::Misaligned));
}

//===----------------------------------------------------------------------===//
// Per-register widths and the nu = 1 contract.
//===----------------------------------------------------------------------===//

TEST(VerifyMutation, VectorInstructionInScalarFunction) {
  // A scalar translation unit declares no vector types, so any V* in a
  // nu = 1 function would fail to compile; it is typed IR, not a cc error.
  ScalarKernel K;
  auto *L = std::get_if<Loop>(&K.F.Body.front());
  ASSERT_TRUE(L);
  Inst Z;
  Z.K = Op::VConst;
  Z.Dst = K.F.NumRegs++;
  K.F.RegWidth.push_back(2);
  L->Body.insert(L->Body.begin(), Z);
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::VectorInScalar));
}

/// An AVX function mixing 4- and 2-lane registers: C[0:4] = A[0:4] * A[0:4]
/// and C[4:6] = A[4:6] + A[4:6].
struct MixedKernel {
  Program P;
  Operand *A, *C;
  Function F;

  MixedKernel() {
    A = P.addOperand("A", 2, 4);
    C = P.addOperand("C", 2, 4);
    C->IO = IOKind::Out;
    FuncBuilder B("mk", 4);
    int Y = B.vload(B.addr(A, 0), 4);
    B.vstore(B.addr(C, 0), B.vbin(Op::VMul, Y, Y), 4);
    int X = B.vload(B.addr(A, 4), 2, 2);
    B.vstore(B.addr(C, 4), B.vbin(Op::VAdd, X, X), 2);
    F = B.take({A, C});
  }
};

TEST(VerifyMutation, MixedWidthsAreClean) {
  MixedKernel K;
  EXPECT_TRUE(verifiesClean(K.F));
}

TEST(VerifyMutation, OperandsOfDifferentWidths) {
  MixedKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VAdd) {
      I->B = 0; // the 4-lane load
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::WidthMismatch));
}

TEST(VerifyMutation, RegisterWiderThanFunction) {
  MixedKernel K;
  K.F.RegWidth[0] = 8;
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::WidthMismatch));
}

TEST(VerifyMutation, LanesBeyondRegisterWidth) {
  MixedKernel K;
  for (Inst *I : insts(K.F))
    if (I->K == Op::VStore && I->Lanes == 2) {
      I->Lanes = 3; // fits nu = 4, not the 2-lane register
      break;
    }
  EXPECT_TRUE(rejectsWith(K.F, VerifyKind::BadLane));
}

//===----------------------------------------------------------------------===//
// Loop variables take values on their step grid.
//===----------------------------------------------------------------------===//

/// for i0 = 0:20:S, i1 = Lo:20:2 -- a 2-lane load of A[Offset + 20*i0 + i1]
/// over a 20x20 A. Plain: S = 1, Lo = 0; triangular: S = 2, Lo = i0 (the
/// tiler's symmetric tile loops). Either way i1 ends at 18, not 19.
Function stepGridKernel(Program &P, int Offset, bool Triangular) {
  Operand *A = P.addOperand("A", 20, 20);
  Operand *C = P.addOperand("C", 20, 20);
  C->IO = IOKind::Out;
  FuncBuilder B("sg", 2);
  int I0 = B.beginLoop(0, 20, Triangular ? 2 : 1);
  int I1 = Triangular ? B.beginLoopAffine(0, I0, 1, 20, 2)
                      : B.beginLoop(0, 20, 2);
  int V = B.vload(B.addr(A, Offset, {{I0, 20}, {I1, 1}}), 2);
  B.vstore(B.addr(C, 0, {{I0, 20}, {I1, 1}}), V, 2);
  B.endLoop();
  B.endLoop();
  return B.take({A, C});
}

TEST(VerifyBounds, StepTwoAccessVerifies) {
  Program P;
  EXPECT_TRUE(verifiesClean(stepGridKernel(P, 0, /*Triangular=*/false)));
}

TEST(VerifyBounds, StepTwoAccessShiftedByOneIsRejected) {
  Program P;
  EXPECT_TRUE(rejectsWith(stepGridKernel(P, 1, /*Triangular=*/false),
                          VerifyKind::OutOfBounds));
}

TEST(VerifyBounds, TriangularStepGridVerifies) {
  // i1 starts at i0, itself on the step-2 grid, so every start is even:
  // the tile's second row (Offset 20) ends at element 399.
  Program P;
  EXPECT_TRUE(verifiesClean(stepGridKernel(P, 20, /*Triangular=*/true)));
  Program Q;
  EXPECT_TRUE(rejectsWith(stepGridKernel(Q, 21, /*Triangular=*/true),
                          VerifyKind::OutOfBounds));
}

TEST(VerifyOracle, Sse2SizeTwentyKernelsVerify) {
  // The step-grid bound: sse2 loop tiles used to be refused as touching
  // one element past the matrix.
  for (const std::string &Src :
       {la::potrfSource(20), la::trsylSource(20), la::trlyaSource(20)}) {
    std::string Err;
    auto P = la::compileLa(Src, Err);
    ASSERT_TRUE(P) << Err;
    GenOptions O;
    O.Isa = &sse2Isa();
    Generator G(std::move(*P), O);
    ASSERT_TRUE(G.isValid()) << G.error();
    auto R = G.best(4);
    ASSERT_TRUE(R);
    EXPECT_TRUE(verifiesClean(R->Func));
  }
}

} // namespace
