//===- erm/Erm.cpp --------------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "erm/Erm.h"

#include "support/Format.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace slingen;
using namespace slingen::erm;

const MicroArch &erm::sandyBridge() {
  static const MicroArch M;
  return M;
}

namespace {

/// True if the selector only moves lane L to lane L (from either source of
/// the result's width): such a VShuffle lowers to a blend, everything else
/// needs a real shuffle or permute.
bool isBlend(const cir::Function &F, const cir::Inst &I) {
  int W = static_cast<int>(I.Sel.size());
  if (F.RegWidth[I.A] != W)
    return false;
  for (int L = 0; L < W; ++L) {
    int S = I.Sel[L];
    if (S >= 0 && S % W != L)
      return false;
  }
  return true;
}

struct Counter {
  const MicroArch &M;
  const cir::Function &F;
  Analysis A;

  void count(const std::vector<cir::Node> &Body, double Weight) {
    using cir::Op;
    for (const cir::Node &N : Body) {
      if (const auto *L = std::get_if<cir::Loop>(&N)) {
        double Trip =
            std::max(0, (L->Hi - L->Lo + L->Step - 1) / L->Step);
        if (L->LoVar >= 0)
          Trip = std::max(1.0, Trip / 2.0); // triangular space averages half
        count(L->Body, Weight * Trip);
        continue;
      }
      const cir::Inst &I = std::get<cir::Inst>(N);
      auto Add = [&](long &C, double N2 = 1.0) {
        C += static_cast<long>(Weight * N2);
      };
      // Lanes of a vector arithmetic instruction's result.
      const int Nu = I.Dst >= 0 ? F.RegWidth[I.Dst] : 1;
      switch (I.K) {
      case Op::SAdd:
      case Op::SSub:
      case Op::SMul:
      case Op::SNeg:
        Add(A.Flops);
        Add(A.OtherIssued);
        break;
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
        Add(A.Flops, Nu);
        Add(A.OtherIssued);
        break;
      case Op::VFma:
      case Op::VFnma:
      case Op::SFma:
      case Op::SFnma:
        Add(A.Flops, 2 * Nu);
        Add(A.OtherIssued);
        break;
      case Op::SDiv:
      case Op::SSqrt:
        Add(A.DivSqrt);
        Add(A.Flops);
        Add(A.OtherIssued);
        break;
      case Op::VDiv:
        Add(A.DivSqrt);
        Add(A.Flops, Nu);
        Add(A.OtherIssued);
        break;
      case Op::SLoad:
      case Op::VLoad:
        Add(A.Loads);
        break;
      case Op::VLoadStrided:
      case Op::VLoadStridedMasked:
        Add(A.Loads, I.Lanes); // decomposes into scalar accesses
        break;
      case Op::SStore:
      case Op::VStore:
        Add(A.Stores);
        break;
      case Op::VStoreStrided:
      case Op::VStoreStridedMasked:
        Add(A.Stores, I.Lanes);
        break;
      case Op::VShuffle:
        if (isBlend(F, I))
          Add(A.Blends);
        else
          Add(A.Shuffles);
        Add(A.OtherIssued);
        break;
      case Op::VExtract:
      case Op::VReduceAdd:
        Add(A.Shuffles); // lane extraction occupies the shuffle port
        Add(A.OtherIssued);
        break;
      case Op::VBroadcast:
        Add(A.Blends);
        Add(A.OtherIssued);
        break;
      case Op::SConst:
      case Op::VConst:
        break; // materialized into registers at function entry
      }
    }
  }
};

/// Latency-weighted longest dependency chain through registers and
/// constant-address memory. Loops contribute their body's chain times the
/// trip count (the generated loops carry accumulators, so iterations are
/// dependent in the worst case -- a conservative upper structure that
/// still tracks the paper's observation about sequential divisions).
struct ChainAnalyzer {
  const MicroArch &M;
  std::vector<double> RegDepth;
  std::map<std::pair<const Operand *, int>, double> MemDepth;
  double Max = 0.0;

  double latOf(const cir::Inst &I) const {
    using cir::Op;
    switch (I.K) {
    case Op::SDiv:
    case Op::VDiv:
    case Op::SSqrt:
      return M.DivSqrtLatency;
    case Op::SMul:
    case Op::VMul:
    case Op::SFma:
    case Op::SFnma:
    case Op::VFma:
    case Op::VFnma:
      return M.MulLatency;
    case Op::SAdd:
    case Op::SSub:
    case Op::VAdd:
    case Op::VSub:
    case Op::VReduceAdd:
      return M.AddLatency;
    case Op::SLoad:
    case Op::VLoad:
    case Op::VLoadStrided:
    case Op::VLoadStridedMasked:
      return M.LoadLatency;
    case Op::VShuffle:
    case Op::VExtract:
    case Op::VBroadcast:
      return M.ShuffleLatency;
    default:
      return 0.0;
    }
  }

  void run(const std::vector<cir::Node> &Body) {
    for (const cir::Node &N : Body) {
      if (const auto *L = std::get_if<cir::Loop>(&N)) {
        double Trip = std::max(0, (L->Hi - L->Lo + L->Step - 1) / L->Step);
        if (L->LoVar >= 0)
          Trip = std::max(1.0, Trip / 2.0);
        // One symbolic iteration measures the per-iteration chain growth;
        // the generated loops carry accumulators, so iterations chain and
        // the growth is extrapolated over the remaining trips. Variable
        // addresses invalidate the constant-address map around the loop.
        MemDepth.clear();
        double Before = Max;
        run(L->Body);
        Max += (Max - Before) * std::max(0.0, Trip - 1.0);
        MemDepth.clear();
        continue;
      }
      const cir::Inst &I = std::get<cir::Inst>(N);
      double In = 0.0;
      for (int R : {I.A, I.B, I.C})
        if (R >= 0 && R < static_cast<int>(RegDepth.size()))
          In = std::max(In, RegDepth[R]);
      if (I.K == cir::Op::SLoad || I.K == cir::Op::VLoad ||
          I.K == cir::Op::VLoadStrided) {
        if (I.Address.isConstant()) {
          auto It = MemDepth.find({I.Address.Buf, I.Address.Const});
          if (It != MemDepth.end())
            In = std::max(In, It->second);
        }
      }
      double OutDepth = In + latOf(I);
      if (cir::isStore(I.K)) {
        if (I.Address.isConstant())
          for (int L2 = 0; L2 < std::max(1, I.Lanes); ++L2)
            MemDepth[{I.Address.Buf, I.Address.Const + L2}] = OutDepth;
        Max = std::max(Max, OutDepth);
      } else if (I.Dst >= 0) {
        if (I.Dst >= static_cast<int>(RegDepth.size()))
          RegDepth.resize(I.Dst + 1, 0.0);
        RegDepth[I.Dst] = OutDepth;
        Max = std::max(Max, OutDepth);
      }
    }
  }
};

} // namespace

Analysis erm::analyze(const cir::Function &F, const MicroArch &M) {
  Counter C{M, F, {}};
  C.count(F.Body, 1.0);
  Analysis A = C.A;

  ChainAnalyzer Chain{M, {}, {}, 0.0};
  Chain.run(F.Body);
  A.CriticalPathCycles = Chain.Max;

  A.DivCycles = A.DivSqrt * M.DivSqrtIssueCycles;
  A.LoadCycles = A.Loads / M.LoadsPerCycle;
  A.StoreCycles = A.Stores / M.StoresPerCycle;
  A.FlopCycles = A.Flops / M.PeakFlopsPerCycle;
  A.ShuffleCycles = A.Shuffles / M.ShufflesPerCycle;
  A.BlendCycles = A.Blends / M.BlendsPerCycle;

  struct {
    const char *Name;
    double Cycles;
  } Resources[] = {
      {"divs/sqrt", A.DivCycles},   {"L1 loads", A.LoadCycles},
      {"L1 stores", A.StoreCycles}, {"flops", A.FlopCycles},
      {"shuffles", A.ShuffleCycles},
  };
  A.Bottleneck = Resources[0].Name;
  A.BoundCycles = Resources[0].Cycles;
  for (const auto &R : Resources)
    if (R.Cycles > A.BoundCycles) {
      A.BoundCycles = R.Cycles;
      A.Bottleneck = R.Name;
    }

  long Issued = A.OtherIssued;
  A.ShuffleBlendIssueRate =
      Issued > 0 ? static_cast<double>(A.Shuffles + A.Blends) / Issued : 0.0;

  // Achievable f/c when the shuffle (resp. blend) port competes with the
  // floating point work: flops / max(flop-bound, rearrangement-bound).
  double FlopBound = std::max(A.FlopCycles, 1e-9);
  A.PerfLimitShuffles =
      A.Flops / std::max(FlopBound, A.ShuffleCycles);
  A.PerfLimitBlends = A.Flops / std::max(FlopBound, A.BlendCycles);
  A.PerfLimitShuffles = std::min(A.PerfLimitShuffles, M.PeakFlopsPerCycle);
  A.PerfLimitBlends = std::min(A.PerfLimitBlends, M.PeakFlopsPerCycle);
  return A;
}

std::vector<double> erm::readyCycles(const cir::Function &F,
                                     const MicroArch &M) {
  ChainAnalyzer Chain{M, std::vector<double>(F.NumRegs, 0.0), {}, 0.0};
  Chain.run(F.Body);
  return std::move(Chain.RegDepth);
}

std::string erm::formatRow(const Analysis &A) {
  return formatf("%-10s %5.0f%% %6.1f %6.1f", A.Bottleneck.c_str(),
                 100.0 * A.ShuffleBlendIssueRate, A.PerfLimitShuffles,
                 A.PerfLimitBlends);
}
