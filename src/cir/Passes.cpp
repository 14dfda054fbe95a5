//===- cir/Passes.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/Passes.h"

#include "cir/Verify.h"
#include "erm/Erm.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

using namespace slingen;
using namespace slingen::cir;

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

namespace {

void forEachInst(std::vector<Node> &Body,
                 const std::function<void(Inst &)> &Fn) {
  for (Node &N : Body) {
    if (auto *I = std::get_if<Inst>(&N))
      Fn(*I);
    else
      forEachInst(std::get<Loop>(N).Body, Fn);
  }
}

void forEachInst(const std::vector<Node> &Body,
                 const std::function<void(const Inst &)> &Fn) {
  for (const Node &N : Body) {
    if (const auto *I = std::get_if<Inst>(&N))
      Fn(*I);
    else
      forEachInst(std::get<Loop>(N).Body, Fn);
  }
}

/// Number of definitions of each register across the whole function.
std::vector<int> defCounts(const Function &F) {
  std::vector<int> Defs(F.NumRegs, 0);
  forEachInst(F.Body, [&](const Inst &I) {
    if (hasDst(I.K) && I.Dst >= 0)
      ++Defs[I.Dst];
  });
  return Defs;
}

void applyRename(Inst &I, const std::vector<int> &Rename) {
  auto Rw = [&](int &R) {
    if (R >= 0)
      R = Rename[R];
  };
  Rw(I.A);
  Rw(I.B);
  Rw(I.C);
}

} // namespace

int cir::countInsts(const Function &F) {
  int N = 0;
  forEachInst(F.Body, [&](const Inst &) { ++N; });
  return N;
}

//===----------------------------------------------------------------------===//
// Loop unrolling.
//===----------------------------------------------------------------------===//

namespace {

void substVar(std::vector<Node> &Body, int Var, int Value) {
  for (Node &N : Body) {
    if (auto *I = std::get_if<Inst>(&N)) {
      auto &Terms = I->Address.Terms;
      for (auto It = Terms.begin(); It != Terms.end();) {
        if (It->first == Var) {
          I->Address.Const += It->second * Value;
          It = Terms.erase(It);
        } else {
          ++It;
        }
      }
    } else {
      Loop &L = std::get<Loop>(N);
      if (L.LoVar == Var) {
        L.Lo += L.LoVarCoeff * Value;
        L.LoVar = -1;
        L.LoVarCoeff = 0;
      }
      substVar(L.Body, Var, Value);
    }
  }
}

void unrollBlock(std::vector<Node> &Body, int MaxTrip) {
  std::vector<Node> Out;
  Out.reserve(Body.size());
  for (Node &N : Body) {
    if (auto *I = std::get_if<Inst>(&N)) {
      Out.push_back(std::move(*I));
      continue;
    }
    Loop &L = std::get<Loop>(N);
    unrollBlock(L.Body, MaxTrip);
    // Loops whose lower bound depends on an outer (non-unrolled) variable
    // have an unknown trip count and are kept.
    int Trip = L.Step > 0 ? (L.Hi - L.Lo + L.Step - 1) / L.Step : 0;
    if (Trip < 0)
      Trip = 0;
    if (Trip > MaxTrip || L.LoVar >= 0) {
      Out.push_back(std::move(L));
      continue;
    }
    for (int V = L.Lo; V < L.Hi; V += L.Step) {
      std::vector<Node> Copy = L.Body; // deep copy (value semantics)
      substVar(Copy, L.Var, V);
      for (Node &C : Copy)
        Out.push_back(std::move(C));
    }
  }
  Body = std::move(Out);
}

} // namespace

void cir::unrollLoops(Function &F, int MaxTrip) {
  unrollBlock(F.Body, MaxTrip);
  verifyAssert(F, "unroll-loops");
}

//===----------------------------------------------------------------------===//
// Local value numbering (CSE + copy propagation).
//===----------------------------------------------------------------------===//

namespace {

struct CseKey {
  Op K;
  int A, B, C;
  uint64_t Imm; ///< bit pattern, so 0.0 and -0.0 stay distinct
  int Lanes, Stride, Width;
  std::vector<int> Sel;

  bool operator==(const CseKey &O) const {
    return std::tie(K, A, B, C, Imm, Lanes, Stride, Width, Sel) ==
           std::tie(O.K, O.A, O.B, O.C, O.Imm, O.Lanes, O.Stride, O.Width,
                    O.Sel);
  }
};

struct CseKeyHash {
  size_t operator()(const CseKey &Key) const {
    uint64_t H = static_cast<uint64_t>(Key.K);
    auto Mix = [&](uint64_t V) { H = (H ^ V) * 0x100000001b3ull; };
    for (int V : {Key.A, Key.B, Key.C, Key.Lanes, Key.Stride, Key.Width})
      Mix(static_cast<uint32_t>(V));
    Mix(Key.Imm);
    for (int V : Key.Sel)
      Mix(static_cast<uint32_t>(V));
    return static_cast<size_t>(H);
  }
};

class CsePass {
public:
  CsePass(Function &F)
      : F(F), Defs(defCounts(F)), Rename(F.NumRegs), IsZero(F.NumRegs) {
    for (int I = 0; I < F.NumRegs; ++I)
      Rename[I] = I;
    runBlock(F.Body);
  }

private:
  const Function &F;
  std::vector<int> Defs;
  std::vector<int> Rename;
  std::vector<bool> IsZero; ///< single-def SConst/VConst +0.0
  /// Single-def VExtract results: Dst -> (source register, lane).
  std::map<int, std::pair<int, int>> Extracts;

  bool singleDef(int R) const { return R >= 0 && Defs[R] == 1; }
  bool zero(int R) const { return R >= 0 && IsZero[R]; }

  /// Fresh-zero accumulators: an add of a +0.0 constant is its other
  /// operand, and an FMA onto one is a multiply. Exact except for the sign
  /// of a zero result (0.0 + -0.0 is 0.0, the folded form keeps -0.0); the
  /// interpreter runs the folded IR, so it and the compiled kernel agree.
  /// Returns true when \p I became a copy of Rename[I.Dst].
  bool foldZero(Inst &I) {
    if (I.K == Op::SAdd || I.K == Op::VAdd) {
      if (zero(I.A) || zero(I.B)) {
        Rename[I.Dst] = zero(I.A) ? I.B : I.A;
        return true;
      }
    } else if ((I.K == Op::SFma || I.K == Op::VFma) && zero(I.C)) {
      I.K = I.K == Op::SFma ? Op::SMul : Op::VMul;
      I.C = -1;
    }
    return false;
  }

  /// A broadcast of an extracted lane is one lane permutation.
  void foldBroadcast(Inst &I) {
    if (I.K != Op::VBroadcast)
      return;
    auto It = Extracts.find(I.A);
    if (It == Extracts.end())
      return;
    I.K = Op::VShuffle;
    I.Sel.assign(F.RegWidth[I.Dst], It->second.second);
    I.A = I.B = It->second.first;
  }

  void runBlock(std::vector<Node> &Body) {
    // Value table local to this straight-line region.
    std::unordered_map<CseKey, int, CseKeyHash> Table;
    std::vector<Node> Out;
    Out.reserve(Body.size());
    for (Node &N : Body) {
      if (auto *LP = std::get_if<Loop>(&N)) {
        runBlock(LP->Body);
        Out.push_back(std::move(N));
        // Registers redefined in the loop invalidate nothing here because
        // table entries only involve single-def registers.
        continue;
      }
      Inst I = std::move(std::get<Inst>(N));
      applyRename(I, Rename);
      bool Eligible = isPure(I.K) && hasDst(I.K) && singleDef(I.Dst) &&
                      (I.A < 0 || singleDef(I.A)) &&
                      (I.B < 0 || singleDef(I.B)) &&
                      (I.C < 0 || singleDef(I.C));
      if (Eligible) {
        if (foldZero(I))
          continue;
        foldBroadcast(I);
        // Canonicalize commutative operations.
        if ((I.K == Op::SAdd || I.K == Op::SMul || I.K == Op::VAdd ||
             I.K == Op::VMul) &&
            I.A > I.B)
          std::swap(I.A, I.B);
        uint64_t Bits;
        std::memcpy(&Bits, &I.Imm, sizeof Bits);
        CseKey Key{I.K,     I.A,      I.B,
                   I.C,     Bits,     I.Lanes,
                   I.Stride, F.RegWidth[I.Dst], I.Sel};
        auto It = Table.find(Key);
        if (It != Table.end()) {
          Rename[I.Dst] = It->second;
          continue; // drop the duplicate instruction
        }
        // Identity shuffles (same width in and out) are copies.
        if (I.K == Op::VShuffle) {
          bool Identity = F.RegWidth[I.A] == F.RegWidth[I.Dst];
          for (size_t L = 0; L < I.Sel.size(); ++L)
            Identity &= I.Sel[L] == static_cast<int>(L);
          if (Identity && singleDef(I.A)) {
            Rename[I.Dst] = I.A;
            continue;
          }
        }
        Table.emplace(std::move(Key), I.Dst);
        if ((I.K == Op::SConst || I.K == Op::VConst) && Bits == 0)
          IsZero[I.Dst] = true;
      }
      if (Eligible && I.K == Op::VExtract)
        Extracts[I.Dst] = {I.A, I.Lanes};
      Out.push_back(std::move(I));
    }
    Body = std::move(Out);
  }
};

} // namespace

void cir::cse(Function &F) {
  CsePass Pass(F);
  // After value numbering, so equal divisors are one register.
  reciprocalDivide(F);
  // Kernels compile without implicit contraction, so on FMA ISAs every
  // fused multiply-add is placed here, scalar chains included.
  if (F.Nu >= 4)
    contractFma(F);
  verifyAssert(F, "cse");
}

//===----------------------------------------------------------------------===//
// Dead code elimination.
//===----------------------------------------------------------------------===//

namespace {

bool dceOnce(Function &F) {
  std::vector<bool> Used(F.NumRegs, false);
  forEachInst(F.Body, [&](const Inst &I) {
    if (I.A >= 0)
      Used[I.A] = true;
    if (I.B >= 0)
      Used[I.B] = true;
    if (I.C >= 0)
      Used[I.C] = true;
  });
  bool Changed = false;
  std::function<void(std::vector<Node> &)> Walk =
      [&](std::vector<Node> &Body) {
        std::vector<Node> Out;
        Out.reserve(Body.size());
        for (Node &N : Body) {
          if (auto *LP = std::get_if<Loop>(&N)) {
            Walk(LP->Body);
            if (!LP->Body.empty())
              Out.push_back(std::move(N));
            else
              Changed = true;
            continue;
          }
          const Inst &I = std::get<Inst>(N);
          bool Removable =
              hasDst(I.K) && !Used[I.Dst] && I.K != Op::SStore;
          // Loads are side-effect free in this IR (no traps on generated
          // addresses), so unused loads die too.
          if (Removable) {
            Changed = true;
            continue;
          }
          Out.push_back(std::move(N));
        }
        Body = std::move(Out);
      };
  Walk(F.Body);
  return Changed;
}

} // namespace

void cir::dce(Function &F) {
  while (dceOnce(F))
    ;
  verifyAssert(F, "dce");
}

//===----------------------------------------------------------------------===//
// FMA contraction.
//===----------------------------------------------------------------------===//

namespace {

class FmaContract {
public:
  FmaContract(Function &F) : Defs(defCounts(F)), Uses(F.NumRegs, 0) {
    forEachInst(F.Body, [&](const Inst &I) {
      if (I.A >= 0)
        ++Uses[I.A];
      if (I.B >= 0)
        ++Uses[I.B];
      if (I.C >= 0)
        ++Uses[I.C];
    });
    runBlock(F.Body);
  }

private:
  std::vector<int> Defs;
  std::vector<int> Uses;

  bool singleDef(int R) const { return R >= 0 && Defs[R] == 1; }

  /// A multiply is foldable when it is the unique definition of a register
  /// with exactly one consumer and its operands are single-def (so
  /// re-reading them at the consumer yields the same values).
  bool foldable(const Inst &I) const {
    return (I.K == Op::VMul || I.K == Op::SMul) && singleDef(I.Dst) &&
           Uses[I.Dst] == 1 && singleDef(I.A) && singleDef(I.B);
  }

  void runBlock(std::vector<Node> &Body) {
    // Pending[r] = index in Body of the foldable VMul defining r. Entries
    // die at the register's (unique) first use or at a loop boundary.
    std::map<int, size_t> Pending;
    std::set<size_t> Dead;
    for (size_t Idx = 0; Idx < Body.size(); ++Idx) {
      if (auto *LP = std::get_if<Loop>(&Body[Idx])) {
        runBlock(LP->Body);
        Pending.clear();
        continue;
      }
      Inst &I = std::get<Inst>(Body[Idx]);
      auto Fuse = [&](int MulReg, Op K, int COperand) {
        auto It = Pending.find(MulReg);
        if (It == Pending.end())
          return false;
        const Inst &M = std::get<Inst>(Body[It->second]);
        Dead.insert(It->second);
        Pending.erase(It);
        I.K = K;
        I.A = M.A;
        I.B = M.B;
        I.C = COperand;
        return true;
      };
      bool Fused = false;
      if (I.K == Op::VAdd)
        Fused = Fuse(I.A, Op::VFma, I.B) || Fuse(I.B, Op::VFma, I.A);
      else if (I.K == Op::VSub)
        Fused = Fuse(I.B, Op::VFnma, I.A); // Dst = A - (mul) = C - a*b
      else if (I.K == Op::SAdd)
        Fused = Fuse(I.A, Op::SFma, I.B) || Fuse(I.B, Op::SFma, I.A);
      else if (I.K == Op::SSub)
        Fused = Fuse(I.B, Op::SFnma, I.A);
      if (!Fused) {
        // The unique consumer was not a fusable add/sub: retire pending
        // entries for any register this instruction reads.
        for (int R : {I.A, I.B, I.C})
          if (R >= 0)
            Pending.erase(R);
      }
      if (foldable(I))
        Pending[I.Dst] = Idx;
    }
    if (Dead.empty())
      return;
    std::vector<Node> Out;
    Out.reserve(Body.size() - Dead.size());
    for (size_t Idx = 0; Idx < Body.size(); ++Idx)
      if (!Dead.count(Idx))
        Out.push_back(std::move(Body[Idx]));
    Body = std::move(Out);
  }
};

} // namespace

void cir::contractFma(Function &F) {
  FmaContract Pass(F);
  verifyAssert(F, "contract-fma");
}

//===----------------------------------------------------------------------===//
// Division by reciprocals.
//===----------------------------------------------------------------------===//

namespace {

class ReciprocalDivide {
public:
  ReciprocalDivide(Function &F)
      : F(F), Defs(defCounts(F)), IsOne(F.NumRegs, false),
        Divides(F.NumRegs, 0), Recip(F.NumRegs, -1) {
    forEachInst(F.Body, [&](const Inst &I) {
      if (I.K == Op::SConst && singleDef(I.Dst) && I.Imm == 1.0)
        IsOne[I.Dst] = true;
    });
    divideBack();
    Ready = erm::readyCycles(F);
    forEachInst(F.Body, [&](const Inst &I) {
      if (divides(I))
        ++Divides[I.B];
    });
    // One reciprocal per divisor that some division will multiply by.
    const int OldRegs = F.NumRegs;
    forEachInst(F.Body, [&](const Inst &I) {
      if (rewrites(I) && Recip[I.B] < 0)
        Recip[I.B] = newReg();
    });
    if (F.NumRegs == OldRegs)
      return;
    // The constant 1 they divide, defined at the function's entry: a
    // top-level one moves there, or a new one is made.
    Inst C;
    auto It = std::find_if(F.Body.begin(), F.Body.end(), [&](const Node &N) {
      const auto *I = std::get_if<Inst>(&N);
      return I && I->K == Op::SConst && IsOne[I->Dst];
    });
    if (It != F.Body.end()) {
      C = std::move(std::get<Inst>(*It));
      F.Body.erase(It);
    } else {
      C.K = Op::SConst;
      C.Dst = newReg();
      C.Imm = 1.0;
    }
    One = C.Dst;
    Rename.resize(F.NumRegs);
    for (int R = 0; R < F.NumRegs; ++R)
      Rename[R] = R;
    runBlock(F.Body);
    F.Body.insert(F.Body.begin(), std::move(C));
  }

private:
  Function &F;
  std::vector<int> Defs;
  std::vector<double> Ready;
  std::vector<bool> IsOne;  ///< single-def constant 1
  std::vector<int> Divides; ///< divisions by d of anything but 1
  std::vector<int> Recip;   ///< the reciprocal register of d, or -1
  std::vector<int> Rename;
  int One = -1;

  bool singleDef(int R) const { return R >= 0 && Defs[R] == 1; }

  int newReg() {
    F.RegWidth.push_back(1);
    return F.NumRegs++;
  }

  /// A division that may become a multiply: by a single-def divisor other
  /// than the constant 1, of anything but the constant 1.
  bool divides(const Inst &I) const {
    return I.K == Op::SDiv && singleDef(I.B) && !IsOne[I.B] && !IsOne[I.A];
  }

  /// The rule, read on the function with every product by a reciprocal
  /// divided back.
  bool rewrites(const Inst &I) const {
    return divides(I) &&
           (Divides[I.B] >= 2 ||
            Ready[I.B] + erm::sandyBridge().MulLatency <= Ready[I.A]);
  }

  /// Turns every scalar product by a single-def `1 / d` back into the
  /// division it stands for, so the rule decides each quotient afresh:
  /// every cse runs the pass, and a division that an earlier run moved on
  /// what it knew then (before store-to-load forwarding joined equal
  /// divisors) is decided again on the final function.
  void divideBack() {
    std::vector<int> Of(F.NumRegs, -1); // r = 1 / d: Of[r] = d
    forEachInst(F.Body, [&](const Inst &I) {
      if (I.K == Op::SDiv && singleDef(I.Dst) && IsOne[I.A] &&
          singleDef(I.B) && !IsOne[I.B])
        Of[I.Dst] = I.B;
    });
    forEachInst(F.Body, [&](Inst &I) {
      if (I.K != Op::SMul)
        return;
      if (I.A >= 0 && Of[I.A] >= 0 && (I.B < 0 || Of[I.B] < 0))
        std::swap(I.A, I.B);
      if (I.B >= 0 && Of[I.B] >= 0) {
        I.K = Op::SDiv;
        I.B = Of[I.B];
      }
    });
  }

  /// True for an existing `1 / d` that the new reciprocal of d replaces.
  bool reused(const Inst &I) const {
    return I.K == Op::SDiv && singleDef(I.B) && IsOne[I.A] &&
           singleDef(I.Dst) && Recip[I.B] >= 0;
  }

  void runBlock(std::vector<Node> &Body) {
    std::vector<Node> Out;
    Out.reserve(Body.size());
    for (Node &N : Body) {
      if (auto *LP = std::get_if<Loop>(&N)) {
        runBlock(LP->Body);
        Out.push_back(std::move(N));
        continue;
      }
      Inst I = std::move(std::get<Inst>(N));
      int Def = hasDst(I.K) ? I.Dst : -1;
      if (reused(I)) {
        Rename[I.Dst] = Recip[I.B];
      } else {
        bool Rewrite = rewrites(I);
        int D = I.B;
        applyRename(I, Rename);
        if (Rewrite) {
          I.K = Op::SMul;
          I.B = Recip[D];
        }
        Out.push_back(std::move(I));
      }
      // The reciprocal follows its divisor's (unique) definition, or takes
      // the place of a reused `1 / d` that was itself a divisor.
      if (Def >= 0 && Recip[Def] >= 0) {
        Inst R;
        R.K = Op::SDiv;
        R.Dst = Recip[Def];
        R.A = One;
        R.B = Rename[Def];
        Out.push_back(std::move(R));
      }
    }
    Body = std::move(Out);
  }
};

} // namespace

void cir::reciprocalDivide(Function &F) {
  ReciprocalDivide Pass(F);
  verifyAssert(F, "reciprocal-divide");
}
