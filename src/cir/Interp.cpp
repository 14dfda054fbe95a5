//===- cir/Interp.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/Interp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace slingen;
using namespace slingen::cir;

namespace {

class Machine {
public:
  Machine(const Function &F,
          const std::map<const Operand *, double *> &Buffers, int Active)
      : F(F), Buffers(Buffers), Active(Active), Vars(F.NumVars, 0),
        Regs(static_cast<size_t>(F.NumRegs) * F.Nu, 0.0) {}

  void run() { runBlock(F.Body); }

private:
  const Function &F;
  const std::map<const Operand *, double *> &Buffers;
  int Active; ///< lanes the runtime-masked ops touch (HasTailMask kernels)
  std::vector<int> Vars;
  // Register file: scalar regs use lane 0 only.
  std::vector<double> Regs;

  double *reg(int Id) { return &Regs[static_cast<size_t>(Id) * F.Nu]; }

  double *resolve(const Addr &A) {
    auto It = Buffers.find(A.Buf);
    assert(It != Buffers.end() && "missing operand buffer");
    int Off = A.Const;
    for (auto [Var, Coeff] : A.Terms)
      Off += Coeff * Vars[Var];
    return It->second + Off;
  }

  void runBlock(const std::vector<Node> &Body) {
    for (const Node &N : Body) {
      if (const auto *I = std::get_if<Inst>(&N)) {
        exec(*I);
        continue;
      }
      const Loop &L = std::get<Loop>(N);
      int Lo = L.Lo + (L.LoVar >= 0 ? L.LoVarCoeff * Vars[L.LoVar] : 0);
      for (int V = Lo; V < L.Hi; V += L.Step) {
        Vars[L.Var] = V;
        runBlock(L.Body);
      }
    }
  }

  /// FMA rounding follows the function's ISA, not the instruction's width:
  /// single-rounded on AVX/AVX-512 (Nu >= 4), mul then add on SSE2 and in
  /// scalar functions -- exactly what the C emitter writes.
  double fmadd(double A, double B, double C) const {
    return F.Nu >= 4 ? std::fma(A, B, C) : A * B + C;
  }
  double fnmadd(double A, double B, double C) const {
    return F.Nu >= 4 ? std::fma(-A, B, C) : C - A * B;
  }

  void exec(const Inst &I) {
    // Vector instructions run at the width of their vector operand (or
    // destination); the verifier guarantees all of them agree.
    int Nu = 1;
    if (hasDst(I.K) && I.Dst >= 0 && F.isVecReg(I.Dst))
      Nu = F.RegWidth[I.Dst];
    else if (I.A >= 0 && F.isVecReg(I.A))
      Nu = F.RegWidth[I.A];
    switch (I.K) {
    case Op::SConst:
      reg(I.Dst)[0] = I.Imm;
      break;
    case Op::SLoad:
      reg(I.Dst)[0] = *resolve(I.Address);
      break;
    case Op::SStore:
      *resolve(I.Address) = reg(I.A)[0];
      break;
    case Op::SAdd:
      reg(I.Dst)[0] = reg(I.A)[0] + reg(I.B)[0];
      break;
    case Op::SSub:
      reg(I.Dst)[0] = reg(I.A)[0] - reg(I.B)[0];
      break;
    case Op::SMul:
      reg(I.Dst)[0] = reg(I.A)[0] * reg(I.B)[0];
      break;
    case Op::SDiv:
      reg(I.Dst)[0] = reg(I.A)[0] / reg(I.B)[0];
      break;
    case Op::SSqrt:
      reg(I.Dst)[0] = std::sqrt(reg(I.A)[0]);
      break;
    case Op::SNeg:
      reg(I.Dst)[0] = -reg(I.A)[0];
      break;
    case Op::SFma:
      reg(I.Dst)[0] = fmadd(reg(I.A)[0], reg(I.B)[0], reg(I.C)[0]);
      break;
    case Op::SFnma:
      reg(I.Dst)[0] = fnmadd(reg(I.A)[0], reg(I.B)[0], reg(I.C)[0]);
      break;
    case Op::VConst:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = I.Imm;
      break;
    case Op::VLoad: {
      const double *P = resolve(I.Address);
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = L < I.Lanes ? P[L] : 0.0;
      break;
    }
    case Op::VLoadStrided: {
      const double *P = resolve(I.Address);
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = L < I.Lanes ? P[static_cast<long>(L) * I.Stride] : 0.0;
      break;
    }
    case Op::VLoadStridedMasked: {
      // Runtime mask: lanes >= Active load 0.0, exactly like the masked
      // gather / maskload lowerings (maskz semantics).
      const double *P = resolve(I.Address);
      int Act = std::min(I.Lanes, Active);
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = L < Act ? P[static_cast<long>(L) * I.Stride] : 0.0;
      break;
    }
    case Op::VStore: {
      double *P = resolve(I.Address);
      for (int L = 0; L < I.Lanes; ++L)
        P[L] = reg(I.A)[L];
      break;
    }
    case Op::VStoreStrided: {
      double *P = resolve(I.Address);
      for (int L = 0; L < I.Lanes; ++L)
        P[static_cast<long>(L) * I.Stride] = reg(I.A)[L];
      break;
    }
    case Op::VStoreStridedMasked: {
      // Only the first Active lanes hit memory; dead lanes' garbage stays
      // in the register, matching mask-store semantics.
      double *P = resolve(I.Address);
      int Act = std::min(I.Lanes, Active);
      for (int L = 0; L < Act; ++L)
        P[static_cast<long>(L) * I.Stride] = reg(I.A)[L];
      break;
    }
    case Op::VBroadcast:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = reg(I.A)[0];
      break;
    case Op::VAdd:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = reg(I.A)[L] + reg(I.B)[L];
      break;
    case Op::VSub:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = reg(I.A)[L] - reg(I.B)[L];
      break;
    case Op::VMul:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = reg(I.A)[L] * reg(I.B)[L];
      break;
    case Op::VDiv:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = reg(I.A)[L] / reg(I.B)[L];
      break;
    case Op::VSqrt:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = std::sqrt(reg(I.A)[L]);
      break;
    case Op::VNeg:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = -reg(I.A)[L];
      break;
    case Op::VFma:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = fmadd(reg(I.A)[L], reg(I.B)[L], reg(I.C)[L]);
      break;
    case Op::VFnma:
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = fnmadd(reg(I.A)[L], reg(I.B)[L], reg(I.C)[L]);
      break;
    case Op::VExtract:
      reg(I.Dst)[0] = reg(I.A)[I.Lanes];
      break;
    case Op::VReduceAdd: {
      // The emitter's association order: fold the upper half onto the
      // lower half until one lane is left.
      double Tmp[8];
      std::copy(reg(I.A), reg(I.A) + Nu, Tmp);
      for (int W = Nu / 2; W >= 1; W /= 2)
        for (int L = 0; L < W; ++L)
          Tmp[L] += Tmp[L + W];
      reg(I.Dst)[0] = Tmp[0];
      break;
    }
    case Op::VShuffle: {
      assert(static_cast<int>(I.Sel.size()) == Nu && "bad selector");
      const int Ws = F.RegWidth[I.A]; // the sources' width
      double Tmp[8];
      for (int L = 0; L < Nu; ++L) {
        int S = I.Sel[L];
        if (S < 0)
          Tmp[L] = 0.0;
        else if (S < Ws)
          Tmp[L] = reg(I.A)[S];
        else
          Tmp[L] = reg(I.B)[S - Ws];
      }
      for (int L = 0; L < Nu; ++L)
        reg(I.Dst)[L] = Tmp[L];
      break;
    }
    }
  }
};

} // namespace

void cir::interpret(const Function &F,
                    const std::map<const Operand *, double *> &Buffers) {
  interpret(F, Buffers, F.Nu);
}

void cir::interpret(const Function &F,
                    const std::map<const Operand *, double *> &Buffers,
                    int Active) {
  assert(Active >= 1 && Active <= F.Nu && "active lane count out of range");
  // Allocate the function's compiler temporaries, mirroring the
  // zero-initialized stack arrays the C emitter declares.
  std::vector<std::vector<double>> LocalStorage;
  std::map<const Operand *, double *> All = Buffers;
  for (const Operand *L : F.Locals) {
    if (All.count(L))
      continue;
    LocalStorage.emplace_back(
        static_cast<size_t>(L->Rows) * L->Cols * F.LocalVecWidth, 0.0);
    All[L] = LocalStorage.back().data();
  }
  Machine M(F, All, Active);
  M.run();
}
