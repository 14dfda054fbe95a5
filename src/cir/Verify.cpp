//===- cir/Verify.cpp - C-IR static verifier ------------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/Verify.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

using namespace slingen;
using namespace slingen::cir;

namespace {

/// Closed integer interval; the value set of a loop variable or affine
/// address expression. Bounds are exact for the loop shapes the builder can
/// produce (constant Hi, affine-in-outer-var Lo, positive step).
struct Interval {
  long Lo = 0;
  long Hi = 0;
};

Interval operator+(Interval A, Interval B) {
  return {A.Lo + B.Lo, A.Hi + B.Hi};
}

Interval scaled(Interval A, long K) {
  long X = A.Lo * K, Y = A.Hi * K;
  return {std::min(X, Y), std::max(X, Y)};
}

/// The values of a loop variable: inside I, and all congruent to I.Lo
/// modulo Grid (Grid 1 when the starts do not share one step grid).
struct VarRange {
  Interval I;
  long Grid = 1;
};

/// Expected operand/destination register class per opcode.
enum class RC { None, Scal, Vec };

struct OpSig {
  RC Dst = RC::None;
  RC A = RC::None;
  RC B = RC::None;
  RC C = RC::None;
};

OpSig opSig(Op K) {
  switch (K) {
  case Op::SConst:
    return {RC::Scal};
  case Op::SLoad:
    return {RC::Scal};
  case Op::SStore:
    return {RC::None, RC::Scal};
  case Op::SAdd:
  case Op::SSub:
  case Op::SMul:
  case Op::SDiv:
    return {RC::Scal, RC::Scal, RC::Scal};
  case Op::SSqrt:
  case Op::SNeg:
    return {RC::Scal, RC::Scal};
  case Op::SFma:
  case Op::SFnma:
    return {RC::Scal, RC::Scal, RC::Scal, RC::Scal};
  case Op::VConst:
    return {RC::Vec};
  case Op::VLoad:
  case Op::VLoadStrided:
  case Op::VLoadStridedMasked:
    return {RC::Vec};
  case Op::VStore:
  case Op::VStoreStrided:
  case Op::VStoreStridedMasked:
    return {RC::None, RC::Vec};
  case Op::VBroadcast:
    return {RC::Vec, RC::Scal};
  case Op::VAdd:
  case Op::VSub:
  case Op::VMul:
  case Op::VDiv:
    return {RC::Vec, RC::Vec, RC::Vec};
  case Op::VSqrt:
  case Op::VNeg:
    return {RC::Vec, RC::Vec};
  case Op::VFma:
  case Op::VFnma:
    return {RC::Vec, RC::Vec, RC::Vec, RC::Vec};
  case Op::VExtract:
  case Op::VReduceAdd:
    return {RC::Scal, RC::Vec};
  case Op::VShuffle:
    return {RC::Vec, RC::Vec, RC::Vec};
  }
  return {};
}

bool isMemOp(Op K) {
  switch (K) {
  case Op::SLoad:
  case Op::SStore:
  case Op::VLoad:
  case Op::VLoadStrided:
  case Op::VLoadStridedMasked:
  case Op::VStore:
  case Op::VStoreStrided:
  case Op::VStoreStridedMasked:
    return true;
  default:
    return false;
  }
}

bool isMaskedOp(Op K) {
  return K == Op::VLoadStridedMasked || K == Op::VStoreStridedMasked;
}

bool isStridedOp(Op K) {
  return K == Op::VLoadStrided || K == Op::VLoadStridedMasked ||
         K == Op::VStoreStrided || K == Op::VStoreStridedMasked;
}

bool isContigVecMem(Op K) { return K == Op::VLoad || K == Op::VStore; }

class Verifier {
public:
  Verifier(const Function &F, int MaxErrors) : F(F), MaxErrors(MaxErrors) {
    // Instance-widened functions (one vector lane per batch instance) carry
    // LocalVecWidth == Nu: their parameter extent is Nu instances and every
    // FMA in them was produced by contractFma (the pre-widening IR is
    // purely scalar), so the single-use contract is checkable exactly.
    InstancesWide = F.Nu > 1 && F.LocalVecWidth == F.Nu;

    for (size_t I = 0; I < F.Params.size(); ++I) {
      const Operand *P = F.Params[I];
      BufferInfo B;
      B.InstanceSize = static_cast<long>(P->Rows) * P->Cols;
      B.Size = B.InstanceSize * (InstancesWide ? F.Nu : 1);
      B.IsParam = true;
      B.Writable = F.ParamWritable.empty() || F.ParamWritable[I];
      Buffers[P] = B;
    }
    for (const Operand *L : F.Locals) {
      BufferInfo B;
      B.InstanceSize = static_cast<long>(L->Rows) * L->Cols;
      B.Size = B.InstanceSize * F.LocalVecWidth;
      B.IsParam = false;
      B.Writable = true;
      Buffers[L] = B;
    }

    if (static_cast<int>(F.RegWidth.size()) != F.NumRegs) {
      error(-1, VerifyKind::BadRegister,
            formatf("RegWidth has %zu entries for %d registers",
                    F.RegWidth.size(), F.NumRegs));
      return;
    }
    // (A nu = 1 function's vector registers are reported at their
    // defining V* instruction, as VectorInScalar.)
    for (int R = 0; R < F.NumRegs && F.Nu > 1; ++R) {
      int W = F.RegWidth[R];
      if (W != 1 && (W > F.Nu || (W != 2 && W != 4 && W != 8))) {
        error(-1, VerifyKind::WidthMismatch,
              formatf("r%d is %d lanes wide; registers hold 1, 2, 4 or 8 "
                      "lanes, at most the function's %d",
                      R, W, F.Nu));
        return;
      }
    }
    Defined.assign(std::max(F.NumRegs, 0), false);
    Uses.assign(std::max(F.NumRegs, 0), 0);
    countUses(F.Body);
    checkBlock(F.Body);
  }

  std::vector<VerifyError> take() { return std::move(Errors); }

private:
  struct BufferInfo {
    long Size = 0;         ///< total extent this function may touch, doubles
    long InstanceSize = 0; ///< one batch instance (Rows*Cols), doubles
    bool IsParam = false;
    bool Writable = true;
  };

  const Function &F;
  int MaxErrors;
  bool InstancesWide = false;
  std::map<const Operand *, BufferInfo> Buffers;
  std::map<int, VarRange> Scope; ///< in-scope loop var -> its values
  std::vector<bool> Defined;
  std::vector<int> Uses;
  int Idx = -1; ///< linear pre-order index of the instruction under check
  std::vector<VerifyError> Errors;

  void countUses(const std::vector<Node> &Body) {
    for (const Node &N : Body) {
      if (const auto *I = std::get_if<Inst>(&N)) {
        for (int R : {I->A, I->B, I->C})
          if (R >= 0 && R < F.NumRegs)
            ++Uses[R];
      } else {
        countUses(std::get<Loop>(N).Body);
      }
    }
  }

  void error(int At, VerifyKind Kind, std::string Detail) {
    if (static_cast<int>(Errors.size()) >= MaxErrors)
      return;
    VerifyError E;
    E.Fn = F.Name;
    E.InstrIndex = At;
    E.Kind = Kind;
    E.Detail = std::move(Detail);
    Errors.push_back(std::move(E));
  }

  bool regOk(int R, const char *Role) {
    if (R >= 0 && R < F.NumRegs)
      return true;
    error(Idx, VerifyKind::BadRegister,
          formatf("%s operand r%d out of range [0, %d)", Role, R, F.NumRegs));
    return false;
  }

  void useReg(int R, RC Want, const char *Role) {
    if (Want == RC::None) {
      if (R >= 0)
        error(Idx, VerifyKind::BadArity,
              formatf("unexpected %s operand r%d", Role, R));
      return;
    }
    if (R < 0) {
      error(Idx, VerifyKind::BadArity, formatf("missing %s operand", Role));
      return;
    }
    if (!regOk(R, Role))
      return;
    if (!Defined[R]) {
      error(Idx, VerifyKind::UseBeforeDef,
            formatf("r%d read by %s operand before any definition", R, Role));
      return;
    }
    bool WantVec = Want == RC::Vec;
    if (F.isVecReg(R) != WantVec)
      error(Idx, VerifyKind::WidthMismatch,
            formatf("%s operand r%d is %s, %s required", Role, R,
                    F.isVecReg(R) ? "vector" : "scalar",
                    WantVec ? "vector" : "scalar"));
  }

  void defReg(int R, RC Want) {
    if (Want == RC::None) {
      if (R >= 0)
        error(Idx, VerifyKind::BadArity,
              formatf("store opcode has destination r%d", R));
      return;
    }
    if (R < 0) {
      error(Idx, VerifyKind::BadArity, "missing destination register");
      return;
    }
    if (!regOk(R, "destination"))
      return;
    bool WantVec = Want == RC::Vec;
    if (F.isVecReg(R) != WantVec)
      error(Idx, VerifyKind::WidthMismatch,
            formatf("destination r%d is %s, opcode defines a %s", R,
                    F.isVecReg(R) ? "vector" : "scalar",
                    WantVec ? "vector" : "scalar"));
    Defined[R] = true;
  }

  /// Lanes the vector instruction \p I operates on: its vector destination's
  /// width, else its vector A operand's (stores, extract, reduce); 0 when
  /// the registers are malformed (already reported).
  int opWidth(const Inst &I, const OpSig &Sig) const {
    int R = Sig.Dst == RC::Vec ? I.Dst : (Sig.A == RC::Vec ? I.A : -1);
    if (R < 0 || R >= F.NumRegs || !F.isVecReg(R))
      return 0;
    return F.RegWidth[R];
  }

  /// Every vector operand of a V* instruction has the instruction's width;
  /// a shuffle's two sources share one width, which may differ from it.
  void checkWidths(const Inst &I, const OpSig &Sig, int W) {
    if (I.K == Op::VShuffle && I.A >= 0 && I.A < F.NumRegs)
      W = F.RegWidth[I.A];
    std::pair<int, RC> Ops[] = {{I.A, Sig.A}, {I.B, Sig.B}, {I.C, Sig.C}};
    const char *Roles[] = {"A", "B", "C"};
    for (int K = 0; K < 3; ++K) {
      auto [R, Class] = Ops[K];
      if (Class != RC::Vec || R < 0 || R >= F.NumRegs || !F.isVecReg(R))
        continue;
      if (F.RegWidth[R] != W)
        error(Idx, VerifyKind::WidthMismatch,
              formatf("%s operand r%d is %d lanes wide, the instruction %d",
                      Roles[K], R, F.RegWidth[R], W));
    }
  }

  /// Affine range of Const + sum(coeff * var) under the current loop scope.
  /// False when a term references an out-of-scope variable (reported).
  bool addrRange(const Addr &A, Interval &Out) {
    Interval R{A.Const, A.Const};
    for (auto [Var, Coeff] : A.Terms) {
      auto It = Scope.find(Var);
      if (It == Scope.end()) {
        error(Idx, VerifyKind::BadLoop,
              formatf("address %s references loop variable i%d not in scope",
                      A.str().c_str(), Var));
        return false;
      }
      R = R + scaled(It->second.I, Coeff);
    }
    Out = R;
    return true;
  }

  void checkMem(const Inst &I, int W) {
    const Addr &A = I.Address;
    if (!A.Buf) {
      error(Idx, VerifyKind::UnknownBuffer, "memory access with null buffer");
      return;
    }
    auto It = Buffers.find(A.Buf);
    if (It == Buffers.end()) {
      error(Idx, VerifyKind::UnknownBuffer,
            "access to '" + A.Buf->Name +
                "', which is neither a parameter nor a local");
      return;
    }
    const BufferInfo &B = It->second;

    if (isStore(I.K) && B.IsParam && !B.Writable)
      error(Idx, VerifyKind::ReadOnlyStore,
            "store to read-only parameter '" + A.Buf->Name + "'");

    if (isMaskedOp(I.K) && !F.HasTailMask)
      error(Idx, VerifyKind::MaskOutsideTail,
            "masked access in a function without a tail mask (no `active_` "
            "guard is emitted)");
    // In an instance-widened tail kernel the parameters hold only `active_`
    // valid instances, so every parameter access must carry the mask.
    // (Hand-built HasTailMask functions outside the widener -- interpreter
    // tests, codelets -- define their own masking discipline.)
    if (InstancesWide && F.HasTailMask && B.IsParam && !isMaskedOp(I.K))
      error(Idx, VerifyKind::MissingMask,
            "unmasked access to parameter '" + A.Buf->Name +
                "' in a tail-masked function");

    bool Vec = I.K != Op::SLoad && I.K != Op::SStore;
    if (Vec && (I.Lanes < 1 || I.Lanes > W)) {
      error(Idx, VerifyKind::BadLane,
            formatf("lane count %d outside [1, %d]", I.Lanes, W));
      return;
    }
    if (isMaskedOp(I.K) && W != F.Nu) {
      error(Idx, VerifyKind::WidthMismatch,
            formatf("masked access on a %d-lane register; tail masks cover "
                    "all %d lanes",
                    W, F.Nu));
      return;
    }
    if (isStridedOp(I.K) && I.Stride < 1) {
      error(Idx, VerifyKind::BadArity,
            formatf("nonpositive stride %d", I.Stride));
      return;
    }

    // The widening contract behind the emitter's aligned vector moves:
    // instance-widened code scales every local address by Nu, so contiguous
    // local accesses are Nu-element (hence, on the 64B-aligned local
    // arrays, vector-width) aligned.
    if (InstancesWide && !B.IsParam && isContigVecMem(I.K)) {
      bool Aligned = A.Const % F.Nu == 0;
      for (auto [Var, Coeff] : A.Terms)
        Aligned = Aligned && Coeff % F.Nu == 0;
      if (!Aligned)
        error(Idx, VerifyKind::Misaligned,
              formatf("widened local access %s not %d-element aligned",
                      A.str().c_str(), F.Nu));
    }

    Interval R;
    if (!addrRange(A, R))
      return;

    if (InstancesWide && isMaskedOp(I.K) && B.IsParam) {
      // Tail contract: lane l is touched only when l < active_, and the
      // batch ABI guarantees exactly `active_` trailing instances of
      // InstanceSize doubles each. In bounds iff the base offset stays
      // inside instance 0 and the lane stride is the instance size.
      // (Outside instance-widened code, masked ops fall through to the
      // generic all-lanes-active extent check below.)
      if (I.Stride != B.InstanceSize) {
        error(Idx, VerifyKind::OutOfBounds,
              formatf("masked lane stride %d != instance size %ld of '%s'",
                      I.Stride, B.InstanceSize, A.Buf->Name.c_str()));
        return;
      }
      if (R.Lo < 0 || R.Hi >= B.InstanceSize)
        error(Idx, VerifyKind::OutOfBounds,
              formatf("masked access %s spans [%ld, %ld], outside one "
                      "instance [0, %ld) of '%s'",
                      A.str().c_str(), R.Lo, R.Hi, B.InstanceSize,
                      A.Buf->Name.c_str()));
      return;
    }

    long Last = R.Hi;
    if (isStridedOp(I.K))
      Last += static_cast<long>(I.Lanes - 1) * I.Stride;
    else if (Vec)
      Last += I.Lanes - 1;
    if (R.Lo < 0 || Last >= B.Size)
      error(Idx, VerifyKind::OutOfBounds,
            formatf("access %s touches [%ld, %ld], outside [0, %ld) of '%s'",
                    A.str().c_str(), R.Lo, Last, B.Size,
                    A.Buf->Name.c_str()));
  }

  void checkInst(const Inst &I,
                 std::map<std::pair<int, int>, int> &MulPairs) {
    OpSig Sig = opSig(I.K);
    useReg(I.A, Sig.A, "A");
    useReg(I.B, Sig.B, "B");
    useReg(I.C, Sig.C, "C");

    // A scalar function's translation unit has no vector types at all.
    if (isVector(I.K) && F.Nu == 1)
      error(Idx, VerifyKind::VectorInScalar,
            "vector instruction in a function with nu = 1");
    int W = isVector(I.K) ? opWidth(I, Sig) : 1;
    if (W > 1)
      checkWidths(I, Sig, W);

    if (isMemOp(I.K))
      checkMem(I, W);
    else if (I.Address.Buf)
      error(Idx, VerifyKind::BadArity,
            "non-memory opcode carries an address");

    switch (I.K) {
    case Op::VExtract:
      if (I.Lanes < 0 || I.Lanes >= W)
        error(Idx, VerifyKind::BadLane,
              formatf("extract lane %d outside [0, %d)", I.Lanes, W));
      break;
    case Op::VShuffle: {
      int Ws = I.A >= 0 && I.A < F.NumRegs ? F.RegWidth[I.A] : W;
      if (static_cast<int>(I.Sel.size()) != W) {
        error(Idx, VerifyKind::BadShuffle,
              formatf("selector has %zu entries, the result %d lanes",
                      I.Sel.size(), W));
      } else {
        for (int S : I.Sel)
          if (S < -1 || S >= 2 * Ws) {
            error(Idx, VerifyKind::BadShuffle,
                  formatf("selector lane %d outside [-1, %d)", S, 2 * Ws));
            break;
          }
      }
      break;
    }
    case Op::VMul:
      // Track multiplies with single-def operands: the pool a (buggy)
      // contraction could duplicate.
      if (InstancesWide && I.A >= 0 && I.B >= 0)
        MulPairs[{std::min(I.A, I.B), std::max(I.A, I.B)}] = I.Dst;
      break;
    case Op::VFma:
    case Op::VFnma:
      // contractFma deletes the multiply it folds (it only fires on
      // single-use muls), so in instance-widened code -- where every FMA
      // comes from contraction -- a surviving same-product multiply with
      // remaining uses means a multi-use mul was contracted.
      if (InstancesWide && I.A >= 0 && I.B >= 0) {
        auto It = MulPairs.find({std::min(I.A, I.B), std::max(I.A, I.B)});
        if (It != MulPairs.end() && It->second >= 0 &&
            It->second < F.NumRegs && Uses[It->second] > 0)
          error(Idx, VerifyKind::FmaMultiUse,
                formatf("fma duplicates multiply r%d = r%d * r%d, which "
                        "still has %d use(s)",
                        It->second, I.A, I.B, Uses[It->second]));
      }
      break;
    default:
      break;
    }

    defReg(I.Dst, Sig.Dst);
  }

  void checkBlock(const std::vector<Node> &Body) {
    // Multiply/FMA pairing is per straight-line region, mirroring
    // contractFma: loops are barriers.
    std::map<std::pair<int, int>, int> MulPairs;
    for (const Node &N : Body) {
      if (static_cast<int>(Errors.size()) >= MaxErrors)
        return;
      if (const auto *I = std::get_if<Inst>(&N)) {
        ++Idx;
        checkInst(*I, MulPairs);
        continue;
      }
      MulPairs.clear();
      const Loop &L = std::get<Loop>(N);
      if (L.Var < 0 || L.Var >= F.NumVars) {
        error(Idx, VerifyKind::BadLoop,
              formatf("loop variable i%d outside [0, %d)", L.Var,
                      F.NumVars));
        continue;
      }
      if (Scope.count(L.Var)) {
        error(Idx, VerifyKind::BadLoop,
              formatf("loop variable i%d shadows an enclosing loop", L.Var));
        continue;
      }
      if (L.Step < 1) {
        error(Idx, VerifyKind::BadLoop,
              formatf("nonpositive loop step %d", L.Step));
        continue;
      }
      Interval LoI{L.Lo, L.Lo};
      // Every start Lo + c*outer is congruent to LoI.Lo modulo Step when
      // the outer variable's grid, scaled by c, is a multiple of Step.
      bool OnGrid = true;
      if (L.LoVar >= 0) {
        auto It = Scope.find(L.LoVar);
        if (It == Scope.end()) {
          error(Idx, VerifyKind::BadLoop,
                formatf("affine lower bound references loop variable i%d "
                        "not in scope",
                        L.LoVar));
          continue;
        }
        const VarRange &Outer = It->second;
        LoI = LoI + scaled(Outer.I, L.LoVarCoeff);
        OnGrid = std::labs(L.LoVarCoeff) * Outer.Grid % L.Step == 0;
      }
      // Values are LoExpr, LoExpr+Step, ... < Hi: the interval runs from
      // min(LoExpr) to the last grid point below Hi (Hi-1 off the grid),
      // clamped non-empty for possibly-dead bodies.
      long Last = static_cast<long>(L.Hi) - 1;
      if (OnGrid && Last >= LoI.Lo)
        Last = LoI.Lo + (Last - LoI.Lo) / L.Step * L.Step;
      VarRange VarI{{LoI.Lo, std::max(Last, LoI.Lo)}, OnGrid ? L.Step : 1};
      Scope.emplace(L.Var, VarI);
      checkBlock(L.Body);
      Scope.erase(L.Var);
    }
  }
};

} // namespace

const char *cir::verifyKindName(VerifyKind K) {
  switch (K) {
  case VerifyKind::BadRegister:
    return "bad-register";
  case VerifyKind::UseBeforeDef:
    return "use-before-def";
  case VerifyKind::BadArity:
    return "bad-arity";
  case VerifyKind::WidthMismatch:
    return "width-mismatch";
  case VerifyKind::BadLane:
    return "bad-lane";
  case VerifyKind::BadShuffle:
    return "bad-shuffle";
  case VerifyKind::BadLoop:
    return "bad-loop";
  case VerifyKind::UnknownBuffer:
    return "unknown-buffer";
  case VerifyKind::ReadOnlyStore:
    return "read-only-store";
  case VerifyKind::MaskOutsideTail:
    return "mask-outside-tail";
  case VerifyKind::MissingMask:
    return "missing-mask";
  case VerifyKind::FmaMultiUse:
    return "fma-multi-use";
  case VerifyKind::OutOfBounds:
    return "out-of-bounds";
  case VerifyKind::Misaligned:
    return "misaligned";
  case VerifyKind::VectorInScalar:
    return "vector-in-scalar";
  }
  return "?";
}

std::string VerifyError::str() const {
  return formatf("%s[%d]: %s: %s", Fn.c_str(), InstrIndex,
                 verifyKindName(Kind), Detail.c_str());
}

std::vector<VerifyError> cir::verify(const Function &F, int MaxErrors) {
  Verifier V(F, MaxErrors);
  return V.take();
}

std::optional<VerifyError> cir::verifyFirst(const Function &F) {
  std::vector<VerifyError> Errors = verify(F, 1);
  if (Errors.empty())
    return std::nullopt;
  return std::move(Errors.front());
}

static int countBlockInsts(const std::vector<Node> &Body) {
  int N = 0;
  for (const Node &Nd : Body) {
    if (std::holds_alternative<Inst>(Nd))
      ++N;
    else
      N += countBlockInsts(std::get<Loop>(Nd).Body);
  }
  return N;
}

void cir::verifyAssert(const Function &F, const char *Stage) {
#ifndef NDEBUG
  std::vector<VerifyError> Errors = verify(F);
  if (Errors.empty())
    return;
  std::fprintf(stderr, "C-IR verification failed after %s:\n", Stage);
  for (const VerifyError &E : Errors)
    std::fprintf(stderr, "  %s\n", E.str().c_str());
  std::abort();
#else
  (void)F;
  (void)Stage;
#endif
}

std::string cir::verifyReportText(const Function &F) {
  std::vector<VerifyError> Errors = verify(F);
  if (Errors.empty())
    return formatf("%s: ok (%d instructions, nu=%d%s)\n", F.Name.c_str(),
                   countBlockInsts(F.Body), F.Nu,
                   F.HasTailMask ? ", tail-masked" : "");
  std::string S;
  for (const VerifyError &E : Errors)
    S += E.str() + "\n";
  return S;
}
