//===- service/Tuner.cpp --------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Tuner.h"

#include "expr/Operand.h"
#include "isa/ISA.h"
#include "obs/Trace.h"
#include "runtime/BatchPool.h"
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

/// Options for compiling one candidate exactly as the served artifact will
/// be compiled (see TuneOptions::KeepSoPath): a provisional object beside
/// the served path, named per process and candidate so concurrent tuners
/// sharing a cache directory never collide.
runtime::CompileOptions candidateOptions(const TuneOptions &T,
                                         bool WithBatchEntry) {
  static std::atomic<int> Seq{0};
  runtime::CompileOptions CO;
  CO.ExtraFlags = T.ExtraFlags;
  CO.WithBatchEntry = WithBatchEntry;
  if (!T.KeepSoPath.empty()) {
    CO.KeepSoPath = T.KeepSoPath + formatf(".cand%d_%d", getpid(),
                                           Seq.fetch_add(1));
    CO.Provisional = true;
  }
  return CO;
}

} // namespace

namespace {

/// Deterministic per-parameter instance arrays for a Count-instance batch
/// (see fillInstance), 64-byte aligned like production batch buffers.
/// Fresh keeps an untouched copy so in-place kernels can be re-run on
/// unfactored data.
struct BatchBuffers {
  std::vector<AlignedBuffer> Store, Fresh;
  std::vector<double *> Bufs;

  BatchBuffers(const GenResult &R, int Count) {
    uint64_t Seed = 0x5eedULL;
    for (const Operand *P : R.Func.Params) {
      Rng Rand(Seed += 0x9e3779b97f4a7c15ULL);
      size_t Sz = static_cast<size_t>(P->Rows) * P->Cols;
      auto &Buf = Store.emplace_back(Sz * Count);
      for (int Inst = 0; Inst < Count; ++Inst)
        fillInstance(P, Rand, Buf.data() + Inst * Sz);
    }
    for (auto &S : Store) {
      Fresh.emplace_back(S);
      Bufs.push_back(S.data());
    }
  }

  void refill() {
    for (size_t I = 0; I < Store.size(); ++I)
      std::copy(Fresh[I].data(), Fresh[I].data() + Fresh[I].size(),
                Store[I].data());
  }
};

} // namespace

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

BatchChoice service::chooseBatchStrategy(const GenResult &R,
                                         const GenOptions &O,
                                         const TuneOptions &T,
                                         bool AllowCompile,
                                         int ThreadsPolicy) {
  BatchChoice C;
  C.Threads = ThreadsPolicy >= 1 ? ThreadsPolicy : 1;
  const int Nu = O.Isa->Nu;
  if (Nu < 2)
    return C; // no lanes to parallelize across

  // Static cost model: one block amortizes the widened kernel (same
  // instruction count as the scalar kernel, vector-width issue) over Nu
  // instances. Its gathers/scatters touch elements one lane at a time,
  // modeled as a fraction of a cycle per element. Compare per instance
  // against the scalar-loop estimate.
  long SumElems = 0;
  for (const Operand *P : R.Func.Params)
    SumElems += static_cast<long>(P->Rows) * P->Cols;
  std::optional<ScalarRecompile> Scalar = recompileScalar(R, &O);
  if (!Scalar)
    return C; // widening infeasible: the loop is the only strategy
  long LoopPerInst = staticCost(R.Func);
  long FusedPerInst = staticCost(Scalar->Func) / Nu + SumElems / 2;
  C.Strategy = FusedPerInst < LoopPerInst
                   ? BatchStrategy::InstanceParallelFused
                   : BatchStrategy::ScalarLoop;

  // The fused emission doubles as the widening-feasibility probe: if it
  // falls back to the scalar loop there is only one strategy to serve. The
  // ScalarRecompile above is reused by the emission and every verify, so
  // Stage 2/3 runs once.
  bool UsedVector = false;
  std::string FusedSource =
      emitBatchedVectorFusedC(R, &O, &UsedVector, &*Scalar);
  if (!UsedVector) {
    C.Strategy = BatchStrategy::ScalarLoop;
    return C;
  }

  std::string LoopSource;
  auto TakeWinner = [&]() {
    if (C.Strategy == BatchStrategy::InstanceParallelFused)
      C.ChosenSource = std::move(FusedSource);
    else
      C.ChosenSource = std::move(LoopSource); // empty unless measured
  };

  // Measure when possible; running a wider ISA than the host executes
  // would fault, not measure.
  if (!AllowCompile || !runtime::haveSystemCompiler() ||
      !runtime::haveCycleCounter() || Nu > hostIsa().Nu) {
    TakeWinner();
    return C;
  }

  // Two probe batches: one divisible by every supported Nu (pure
  // full-block path) and one remainder-heavy (count % Nu == Nu/2, the
  // masked-tail path production batches pay on ragged counts). Ranking by
  // the sum of the two medians keeps a strategy with a fast block loop but
  // a slow tail from winning on divisible counts alone.
  const int ProbeCounts[2] = {64, 64 + Nu / 2};
  const std::string FuncName = R.Func.Name;
  const int NumParams = static_cast<int>(R.Func.Params.size());

  // One round: verify both emissions (a rejection refuses the request
  // before anything compiles), compile them at once, then time them one by
  // one in this order, so no timing shares the CPUs with a compile.
  LoopSource = emitBatchedC(R);
  struct Candidate {
    BatchStrategy Strategy;
    const std::string *Source;
    double *CyclesOut;
  };
  const Candidate Cands[] = {
      {BatchStrategy::ScalarLoop, &LoopSource, &C.LoopCycles},
      {BatchStrategy::InstanceParallelFused, &FusedSource, &C.FusedCycles},
  };
  std::vector<runtime::CompileJob> Jobs;
  for (const Candidate &Cand : Cands) {
    if ((C.Rejected = verifyBeforeCompile(R, O, /*Batched=*/true,
                                          Cand.Strategy, &*Scalar)))
      return C;
    Jobs.push_back({.CSource = *Cand.Source,
                    .FuncName = FuncName,
                    .NumParams = NumParams,
                    .Opts = candidateOptions(T, /*WithBatchEntry=*/true)});
  }
  runtime::compileAll(Jobs);
  int BestIdx = -1;
  for (int I = 0; I < static_cast<int>(Jobs.size()); ++I) {
    std::optional<runtime::JitKernel> &K = Jobs[I].Kernel;
    if (!K)
      continue;
    obs::ScopedSpan Meas(
        "tuner-measure", "tuner",
        &obs::Registry::global().histogram("tuner.measure.us"));
    double Sum = 0.0;
    for (int Count : ProbeCounts) {
      BatchBuffers B(R, Count);
      runtime::Measurement M = runtime::measureCycles(
          [&] {
            B.refill();
            K->callBatch(Count, B.Bufs.data());
          },
          T.Measure);
      Sum += M.Median;
    }
    *Cands[I].CyclesOut = Sum;
    if (BestIdx < 0 || Sum < *Cands[BestIdx].CyclesOut)
      BestIdx = I;
  }
  if (BestIdx < 0) {
    TakeWinner();
    return C; // nothing compiled: keep the static choice
  }
  C.Measured = true;
  C.Strategy = Cands[BestIdx].Strategy;
  runtime::JitKernel &Winner = *Jobs[BestIdx].Kernel;

  // Thread resolution (auto policy only): re-time the winner over a batch
  // large enough to amortize a pool wakeup, single-threaded versus spread
  // across the host's cores, and keep whichever is faster. Pinned
  // policies skip this -- the caller already decided.
  if (ThreadsPolicy == 0) {
    const int N = runtime::defaultBatchThreads();
    if (N > 1 && Winner.hasBatchSpan()) {
      // Large enough to amortize the pool wakeup, plus a ragged tail so
      // the threaded timing includes the masked remainder block.
      const int CountMT = 64 * Nu + Nu / 2;
      BatchBuffers B(R, CountMT);
      obs::ScopedSpan Meas(
          "tuner-measure", "tuner",
          &obs::Registry::global().histogram("tuner.measure.us"));
      runtime::Measurement Single = runtime::measureCycles(
          [&] {
            B.refill();
            Winner.callBatch(CountMT, B.Bufs.data());
          },
          T.Measure);
      runtime::Measurement Threaded = runtime::measureCycles(
          [&] {
            B.refill();
            runtime::callBatchParallel(Winner, CountMT,
                                       B.Bufs.data(), Nu, N);
          },
          T.Measure);
      C.ThreadsMeasured = true;
      C.SingleCycles = Single.Median;
      C.ThreadedCycles = Threaded.Median;
      C.Threads = Threaded.Median < Single.Median ? N : 1;
    }
  }
  // The losing candidates' provisional objects go with Jobs.
  C.Kernel = std::make_shared<runtime::JitKernel>(std::move(Winner));
  TakeWinner();
  return C;
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
                    .Opts = candidateOptions(T, /*WithBatchEntry=*/false)});
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
