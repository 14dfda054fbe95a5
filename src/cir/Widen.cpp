//===- cir/Widen.cpp ------------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/Widen.h"

#include "cir/Verify.h"

#include <map>

using namespace slingen;
using namespace slingen::cir;

namespace {

class Widener {
public:
  /// Parameter accesses become lane-strided (stride = the parameter's
  /// instance size) against the batch ABI; local accesses become contiguous
  /// accesses against AoSoA blocks. \p Masked additionally makes every
  /// parameter access runtime-masked (VLoadStridedMasked/
  /// VStoreStridedMasked) and marks the function HasTailMask: the result is
  /// the `count % Lanes` tail kernel, executing only the first `active_`
  /// lanes' instances. Locals stay full-width (dead lanes compute garbage
  /// that is never stored).
  Widener(const Function &F, int Lanes, bool Masked)
      : F(F), Lanes(Lanes), Masked(Masked) {
    for (const Operand *P : F.Params)
      ParamStride[P] = P->Rows * P->Cols;
  }

  bool run(WidenedFunction &Out, const std::string &Name) {
    if (F.Nu != 1 || Lanes < 2)
      return false;

    // Locals are cloned under a function-qualified name so the widened
    // kernel can share a translation unit (and, after splitting, file
    // scope) with the scalar kernel it was derived from.
    for (const Operand *L : F.Locals) {
      auto C = std::make_unique<Operand>(*L);
      C->Name = Name + "_" + L->Name;
      C->Overwrites = nullptr;
      LocalMap[L] = C.get();
      Out.Func.Locals.push_back(C.get());
      Out.OwnedLocals.push_back(std::move(C));
    }

    Out.Func.Name = Name;
    Out.Func.Params = F.Params;
    Out.Func.ParamWritable = F.ParamWritable;
    Out.Func.HasTailMask = Masked;
    Out.Func.Nu = Lanes;
    Out.Func.LocalVecWidth = Lanes;
    Out.Func.NumRegs = F.NumRegs;
    Out.Func.NumVars = F.NumVars;
    Out.Func.RegWidth.assign(F.NumRegs, Lanes);
    return widenBlock(F.Body, Out.Func.Body);
  }

private:
  const Function &F;
  int Lanes;
  bool Masked;
  std::map<const Operand *, const Operand *> LocalMap;
  std::map<const Operand *, int> ParamStride;

  /// AoSoA address of a local: Lanes consecutive doubles per scalar
  /// element, so the whole affine form scales by Lanes. Parameter addresses
  /// stay in scalar element units (the lane offset is carried by the
  /// strided load/store instead).
  Addr widenAddr(const Addr &A) const {
    Addr W = A;
    auto It = LocalMap.find(A.Buf);
    if (It != LocalMap.end())
      W.Buf = It->second;
    if (ParamStride.count(A.Buf))
      return W;
    W.Const *= Lanes;
    for (auto &[Var, Coeff] : W.Terms)
      Coeff *= Lanes;
    return W;
  }

  /// Lane stride of a parameter access; 0 selects the contiguous (AoSoA)
  /// form of a local.
  int laneStride(const Addr &A) const {
    auto It = ParamStride.find(A.Buf);
    return It == ParamStride.end() ? 0 : It->second;
  }

  bool widenBlock(const std::vector<Node> &In, std::vector<Node> &Out) {
    for (const Node &N : In) {
      if (const auto *L = std::get_if<Loop>(&N)) {
        Loop W;
        W.Var = L->Var;
        W.Lo = L->Lo;
        W.Hi = L->Hi;
        W.Step = L->Step;
        W.LoVar = L->LoVar;
        W.LoVarCoeff = L->LoVarCoeff;
        Out.push_back(std::move(W));
        if (!widenBlock(L->Body, std::get<Loop>(Out.back()).Body))
          return false;
        continue;
      }
      Inst W = std::get<Inst>(N);
      switch (W.K) {
      case Op::SConst:
        W.K = Op::VConst;
        break;
      case Op::SLoad:
        if (int S = laneStride(W.Address)) {
          W.K = Masked ? Op::VLoadStridedMasked : Op::VLoadStrided;
          W.Stride = S;
        } else {
          W.K = Op::VLoad;
        }
        W.Address = widenAddr(W.Address);
        W.Lanes = Lanes;
        break;
      case Op::SStore:
        if (int S = laneStride(W.Address)) {
          W.K = Masked ? Op::VStoreStridedMasked : Op::VStoreStrided;
          W.Stride = S;
        } else {
          W.K = Op::VStore;
        }
        W.Address = widenAddr(W.Address);
        W.Lanes = Lanes;
        break;
      case Op::SAdd:
        W.K = Op::VAdd;
        break;
      case Op::SSub:
        W.K = Op::VSub;
        break;
      case Op::SMul:
        W.K = Op::VMul;
        break;
      case Op::SDiv:
        W.K = Op::VDiv;
        break;
      case Op::SSqrt:
        W.K = Op::VSqrt;
        break;
      case Op::SNeg:
        W.K = Op::VNeg;
        break;
      default:
        return false; // vector instruction: input was not scalar C-IR
      }
      Out.push_back(std::move(W));
    }
    return true;
  }
};

} // namespace

std::optional<WidenedFunction>
cir::widenAcrossInstancesFused(const Function &F, int Lanes,
                               const std::string &Name) {
  WidenedFunction Out;
  Widener W(F, Lanes, /*Masked=*/false);
  if (!W.run(Out, Name))
    return std::nullopt;
  verifyAssert(Out.Func, "widen-across-instances-fused");
  return Out;
}

std::optional<WidenedFunction>
cir::widenAcrossInstancesFusedMasked(const Function &F, int Lanes,
                                     const std::string &Name) {
  WidenedFunction Out;
  Widener W(F, Lanes, /*Masked=*/true);
  if (!W.run(Out, Name))
    return std::nullopt;
  verifyAssert(Out.Func, "widen-across-instances-fused-masked");
  return Out;
}
