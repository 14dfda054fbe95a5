//===- service/Tuner.cpp --------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Tuner.h"

#include "expr/Operand.h"
#include "isa/ISA.h"
#include "obs/Trace.h"
#include "runtime/Jit.h"
#include "support/AlignedBuffer.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include <unistd.h>

using namespace slingen;
using namespace slingen::service;

namespace {

/// Deterministic, structure-respecting data for one instance of \p P:
/// SPD for positive-definite operands, well-conditioned triangular for
/// triangular ones, uniform [1, 2) (positive, denormal-free) otherwise --
/// so the div/sqrt chains the cost comparison hinges on run on numerically
/// realistic values instead of NaNs from e.g. sqrt of a negative.
void fillInstance(const Operand *P, Rng &Rand, double *Out) {
  const int Rows = P->Rows, Cols = P->Cols;
  if (P->PosDef && Rows == Cols && Rows > 1) {
    std::vector<double> G(static_cast<size_t>(Rows) * Rows);
    for (double &V : G)
      V = Rand.uniform(-1.0, 1.0);
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < Rows; ++J) {
        double Acc = I == J ? Rows : 0.0;
        for (int K = 0; K < Rows; ++K)
          Acc += G[K * Rows + I] * G[K * Rows + J];
        Out[I * Rows + J] = Acc;
      }
    return;
  }
  if (Rows == Cols && Rows > 1 &&
      (P->Structure == StructureKind::LowerTriangular ||
       P->Structure == StructureKind::UpperTriangular)) {
    bool Lower = P->Structure == StructureKind::LowerTriangular;
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < Rows; ++J) {
        bool Stored = I == J || (Lower ? J < I : J > I);
        Out[I * Rows + J] =
            I == J ? Rand.uniform(1.0, 2.0) + 2.0
                   : (Stored ? Rand.uniform(-1.0, 1.0) : 0.0);
      }
    return;
  }
  for (long I = 0; I < static_cast<long>(Rows) * Cols; ++I)
    Out[I] = Rand.uniform(1.0, 2.0);
}

/// Deterministic parameter buffers (see fillInstance) refilled identically
/// before each candidate so in-place kernels (which overwrite their
/// operands between repeats) are ranked on equal inputs.
void fillBuffers(const GenResult &R, std::vector<AlignedBuffer> &Store,
                 std::vector<double *> &Bufs) {
  Store.clear();
  Bufs.clear();
  uint64_t Seed = 0x5eedULL;
  for (const Operand *P : R.Func.Params) {
    Rng Rand(Seed += 0x9e3779b97f4a7c15ULL);
    auto &Buf = Store.emplace_back(static_cast<size_t>(P->Rows) * P->Cols);
    fillInstance(P, Rand, Buf.data());
  }
  for (auto &S : Store)
    Bufs.push_back(S.data());
}

} // namespace

runtime::CompileOptions
service::provisionalCompileOptions(const TuneOptions &T) {
  static std::atomic<int> Seq{0};
  runtime::CompileOptions CO;
  CO.ExtraFlags = T.ExtraFlags;
  if (!T.KeepSoPath.empty()) {
    CO.KeepSoPath = T.KeepSoPath + formatf(".cand%d_%d", getpid(),
                                           Seq.fetch_add(1));
    CO.Provisional = true;
  }
  return CO;
}

std::optional<cir::VerifyError>
service::verifyBeforeCompile(const GenResult &R, const GenOptions &O,
                             bool Batched, BatchStrategy Strategy,
                             const ScalarRecompile *Pre) {
  if (fault::anyArmed() && fault::shouldFire("corrupt-ir")) {
    cir::Function Broken = R.Func;
    Broken.RegWidth.push_back(1);
    return cir::verifyFirst(Broken);
  }
  return verifyEmittedIR(R, &O, Batched, Strategy, Pre);
}

BatchChoice service::resolveBatchEmission(const GenResult &R,
                                          const GenOptions &O,
                                          BatchStrategy Requested) {
  const int Nu = O.Isa->Nu;
  std::optional<ScalarRecompile> Scalar;
  if (Requested != BatchStrategy::ScalarLoop && Nu >= 2)
    Scalar = recompileScalar(R, &O);
  bool Fused = Scalar && Requested == BatchStrategy::InstanceParallelFused;
  if (Scalar && Requested == BatchStrategy::Auto) {
    // Static cost model: one block amortizes the widened kernel (same
    // instruction count as the scalar kernel, vector-width issue) over Nu
    // instances. Its gathers/scatters touch elements one lane at a time,
    // modeled as a fraction of a cycle per element. Compare per instance
    // against the scalar-loop estimate.
    long SumElems = 0;
    for (const Operand *P : R.Func.Params)
      SumElems += static_cast<long>(P->Rows) * P->Cols;
    Fused = staticCost(Scalar->Func) / Nu + SumElems / 2 < staticCost(R.Func);
  }

  BatchChoice C;
  // A widening that fails emits the scalar loop, and the label follows.
  bool UsedVector = false;
  C.Source = Fused ? emitBatchedVectorFusedC(R, &O, &UsedVector, &*Scalar)
                   : emitBatchedC(R);
  C.Strategy = UsedVector ? BatchStrategy::InstanceParallelFused
                          : BatchStrategy::ScalarLoop;
  C.Rejected = verifyBeforeCompile(R, O, /*Batched=*/true, C.Strategy,
                                   Scalar ? &*Scalar : nullptr);
  return C;
}

BatchChoice service::chooseBatchStrategy(const GenResult &R,
                                         const GenOptions &O,
                                         const TuneOptions &, bool, int) {
  return resolveBatchEmission(R, O, BatchStrategy::Auto);
}

std::optional<TuneResult> service::tuneKernel(const Generator &G,
                                              const TuneOptions &T,
                                              std::string &Err) {
  std::vector<GenResult> All = G.enumerate(T.MaxVariants);
  if (All.empty()) {
    Err = "no feasible variant";
    return std::nullopt;
  }

  TuneResult Best;
  // Static fallback (enumerate() already sorted by the cost model) when we
  // cannot compile, cannot time, or the target ISA is wider than the host
  // can execute -- running such a candidate would fault, not measure.
  if (!runtime::haveSystemCompiler() || !runtime::haveCycleCounter() ||
      G.options().Isa->Nu > hostIsa().Nu) {
    Best.Result = std::move(All.front());
    return Best;
  }

  // One round: verify the top-K (a rejection refuses the request before
  // anything compiles), compile them at once, then time them one by one in
  // rank order, so no timing shares the CPUs with a compile.
  int TopK = std::min<int>(std::max(T.TopK, 1), static_cast<int>(All.size()));
  const GenOptions &O = G.options();
  std::vector<runtime::CompileJob> Jobs;
  for (int I = 0; I < TopK; ++I) {
    if ((Best.Rejected = verifyBeforeCompile(All[I], O, /*Batched=*/false,
                                             BatchStrategy::ScalarLoop))) {
      Best.Result = std::move(All[I]);
      return Best;
    }
    Jobs.push_back({.CSource = emitC(All[I]),
                    .FuncName = All[I].Func.Name,
                    .NumParams = static_cast<int>(All[I].Func.Params.size()),
                    .Opts = provisionalCompileOptions(T)});
  }
  runtime::compileAll(Jobs);
  int BestIdx = -1;
  double BestCycles = 0.0;
  std::string LastCompileErr;
  for (int I = 0; I < TopK; ++I) {
    std::optional<runtime::JitKernel> &K = Jobs[I].Kernel;
    if (!K) {
      LastCompileErr = Jobs[I].Err;
      continue;
    }
    ++Best.CandidatesMeasured;
    std::vector<AlignedBuffer> Store;
    std::vector<double *> Bufs;
    fillBuffers(All[I], Store, Bufs);
    obs::ScopedSpan Meas(
        "tuner-measure", "tuner",
        &obs::Registry::global().histogram("tuner.measure.us"));
    runtime::Measurement M = runtime::measureCycles(
        [&] { K->call(Bufs.data()); }, T.Measure);
    if (BestIdx < 0 || M.Median < BestCycles) {
      BestIdx = I;
      BestCycles = M.Median;
    }
  }

  if (BestIdx < 0) {
    // Every candidate failed to compile (e.g. cross-ISA flags the local
    // compiler rejects): fall back to the static ranking rather than fail.
    Err = LastCompileErr;
    Best.Result = std::move(All.front());
    return Best;
  }
  Best.Result = std::move(All[BestIdx]);
  Best.Measured = true;
  Best.MedianCycles = BestCycles;
  // The losers' provisional objects go with Jobs.
  Best.Kernel =
      std::make_shared<runtime::JitKernel>(std::move(*Jobs[BestIdx].Kernel));
  return Best;
}
