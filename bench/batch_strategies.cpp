//===- bench/batch_strategies.cpp - batched strategy comparison ------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compares the batched codegen strategies (see slingen::BatchStrategy)
// head to head -- the scalar loop ("loop") and the instance-parallel form
// ("fused") -- on potrf {4, 8, 16}, the gemm-flavored trsyl {4, 8} and
// trlya 4, over batch counts from 32 to 16384, including the
// remainder-heavy 33 and 1025 (count % Nu == 1 for every supported Nu: the
// worst-case masked-tail path): the workload shape the paper's Sec. 5
// "batched computations" sketch targets. On multicore hosts every variant
// additionally gets two threaded rows at k = the affinity mask's CPU
// count: "-pool<k>" always hands the batch to the runtime batch thread
// pool (runtime::callBatchPooled), and "-mt<k>" dispatches as the library
// does (runtime::callBatchParallel, which runs the batch on the caller
// below runtime::PoolBreakEvenNs of projected work). The single-thread and
// "-pool" rows are the sweep that sets PoolBreakEvenNs (README "Batch
// multithreading"). A google-benchmark binary so `tools/bench_batch.sh`
// can record BENCH_batch.json for the perf trajectory; the CPU count is
// recorded in the JSON context so rows from different hosts are
// comparable.
//
// Skips cleanly (registering no benchmarks, still writing valid JSON when
// --benchmark_out is given) when no system C compiler is available or the
// host has no vector ISA to parallelize across; threaded rows are skipped
// on single-core hosts.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "la/Lower.h"
#include "la/Programs.h"
#include "runtime/BatchPool.h"
#include "runtime/Jit.h"
#include "slingen/SLinGen.h"
#include "support/AlignedBuffer.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace slingen;

namespace {

/// One compiled batched kernel plus Distinct instances of its inputs,
/// shared by every count-variant of the benchmark (registered lambdas copy
/// the shared_ptr).
struct BatchBench {
  runtime::JitKernel Kernel;
  /// Per parameter: Distinct instances back to back; empty for outputs.
  std::vector<std::vector<double>> Inputs;
  std::vector<size_t> Sizes; ///< per parameter: doubles per instance

  BatchBench(runtime::JitKernel K) : Kernel(std::move(K)) {}
};

constexpr int Distinct = 64;

/// Count-instance batch storage, its inputs tiled from a BatchBench's.
/// Built inside each benchmark run, so only one count's buffers are live
/// at a time.
struct Batch {
  std::vector<AlignedBuffer> Store;
  std::vector<double *> Bufs;

  Batch(const BatchBench &B, int Count) {
    for (size_t P = 0; P < B.Sizes.size(); ++P) {
      const size_t Sz = B.Sizes[P];
      auto &Buf = Store.emplace_back(Sz * Count);
      if (!B.Inputs[P].empty())
        for (int Inst = 0; Inst < Count; ++Inst)
          std::copy_n(B.Inputs[P].data() + (Inst % Distinct) * Sz, Sz,
                      Buf.data() + static_cast<size_t>(Inst) * Sz);
      Bufs.push_back(Buf.data());
    }
  }
};

/// Structure-respecting inputs: SPD for positive-definite operands,
/// well-conditioned triangular for triangular ones, general data for other
/// inputs, nothing for outputs. Inputs are read-only for potrf, trsyl and
/// trlya (X is the only written operand), so timed runs need no refill.
std::shared_ptr<BatchBench> makeBench(const GenResult &R,
                                      const std::string &CSource,
                                      const std::string &IsaFlags) {
  runtime::CompileOptions CO;
  CO.ExtraFlags = IsaFlags;
  CO.WithBatchEntry = true;
  std::string Err;
  auto K = runtime::JitKernel::compile(
      CSource, R.Func.Name, static_cast<int>(R.Func.Params.size()), CO, Err);
  if (!K) {
    fprintf(stderr, "batch_strategies: jit failed: %s\n", Err.c_str());
    return nullptr;
  }
  auto B = std::make_shared<BatchBench>(std::move(*K));
  for (const Operand *P : R.Func.Params) {
    size_t Sz = static_cast<size_t>(P->Rows) * P->Cols;
    B->Sizes.push_back(Sz);
    auto &In = B->Inputs.emplace_back();
    if (P->IO == IOKind::Out)
      continue;
    for (int Inst = 0; Inst < Distinct; ++Inst) {
      Rng Rand(100 + 131 * Inst + static_cast<int>(B->Inputs.size()));
      std::vector<double> Mat;
      if (P->PosDef)
        Mat = bench::randSpd(P->Rows, Rand);
      else if (P->Structure == StructureKind::LowerTriangular)
        Mat = bench::randLowerTri(P->Rows, Rand);
      else if (P->Structure == StructureKind::UpperTriangular)
        Mat = bench::randUpperTri(P->Rows, Rand);
      else
        Mat = bench::randGeneral(P->Rows, P->Cols, Rand);
      In.insert(In.end(), Mat.begin(), Mat.end());
    }
  }
  return B;
}

/// Width of the threaded rows: every CPU this process may run on, capped
/// at what the pool can use.
int batchThreads() {
  return std::min(runtime::affinityCpus(),
                  runtime::BatchPool::MaxPoolWorkers + 1);
}

void registerKernel(const char *Label, const std::string &Source, int N) {
  std::string Err;
  auto P = la::compileLa(Source, Err);
  if (!P) {
    fprintf(stderr, "batch_strategies: %s\n", Err.c_str());
    return;
  }
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = std::string(Label) + std::to_string(N);
  Generator G(std::move(*P), O);
  auto R = G.best(3);
  if (!R) {
    fprintf(stderr, "batch_strategies: generation failed for %s n=%d\n",
            Label, N);
    return;
  }
  const std::string IsaFlags = runtime::isaCompileFlags(*O.Isa);
  bool FusedOk = false;
  std::string FusedSource = emitBatchedVectorFusedC(*R, &O, &FusedOk);
  if (!FusedOk) {
    // Timing the fallback would record loop-vs-loop under a vector label
    // and corrupt the cross-PR perf trajectory; skip loudly instead.
    fprintf(stderr,
            "batch_strategies: instance-parallel emission infeasible for "
            "%s n=%d; skipping its variants\n",
            Label, N);
    FusedSource.clear();
  }
  const struct {
    const char *Name;
    std::string Source;
  } Variants[] = {
      {"loop", emitBatchedC(*R)},
      {"fused", std::move(FusedSource)},
  };
  const int MT = batchThreads();
  const int Nu = hostIsa().Nu;
  for (const auto &V : Variants) {
    if (V.Source.empty())
      continue;
    std::shared_ptr<BatchBench> B = makeBench(*R, V.Source, IsaFlags);
    if (!B)
      continue;
    // 33 and 1025 are == 1 (mod 2, 4, and 8): every supported Nu pays the
    // worst-case one-lane masked tail on top of the full-block loop. The
    // rest span the pool's break-even for the n = 4 and n = 8 kernels.
    for (int Count : {32, 33, 128, 256, 512, 1024, 1025, 2048, 4096, 16384}) {
      std::string Base = std::string(Label) + "/n=" + std::to_string(N) +
                         "/count=" + std::to_string(Count) + "/";
      benchmark::RegisterBenchmark(
          (Base + V.Name).c_str(), [B, Count](benchmark::State &State) {
            Batch X(*B, Count);
            for (auto _ : State) {
              B->Kernel.callBatch(Count, X.Bufs.data());
              benchmark::ClobberMemory();
            }
            State.SetItemsProcessed(State.iterations() * Count);
          });
      if (MT < 2)
        continue;
      const std::string Width = std::to_string(MT);
      benchmark::RegisterBenchmark(
          (Base + V.Name + "-pool" + Width).c_str(),
          [B, Count, Nu, MT](benchmark::State &State) {
            Batch X(*B, Count);
            for (auto _ : State) {
              runtime::callBatchPooled(B->Kernel, 0, Count, X.Bufs.data(),
                                       Nu, MT);
              benchmark::ClobberMemory();
            }
            State.SetItemsProcessed(State.iterations() * Count);
          });
      benchmark::RegisterBenchmark(
          (Base + V.Name + "-mt" + Width).c_str(),
          [B, Count, Nu, MT](benchmark::State &State) {
            Batch X(*B, Count);
            for (auto _ : State) {
              runtime::callBatchParallel(B->Kernel, Count, X.Bufs.data(),
                                         Nu, MT);
              benchmark::ClobberMemory();
            }
            State.SetItemsProcessed(State.iterations() * Count);
          });
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  bool Skip = false;
  if (!runtime::haveSystemCompiler()) {
    fprintf(stderr, "batch_strategies: no system C compiler; skipping\n");
    Skip = true;
  } else if (hostIsa().Nu < 2) {
    fprintf(stderr,
            "batch_strategies: host has no vector ISA; ScalarLoop is the "
            "only strategy -- skipping\n");
    Skip = true;
  }
  if (batchThreads() < 2)
    fprintf(stderr, "batch_strategies: single-core host; threaded rows "
                    "skipped\n");
  if (!Skip) {
    for (int N : {4, 8, 16})
      registerKernel("potrf", la::potrfSource(N), N);
    for (int N : {4, 8})
      registerKernel("trsyl", la::trsylSource(N), N);
    registerKernel("trlya", la::trlyaSource(4), 4);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::AddCustomContext("ncpus",
                              std::to_string(runtime::affinityCpus()));
  benchmark::AddCustomContext("batch_threads",
                              std::to_string(batchThreads()));
  benchmark::AddCustomContext("pool_max_workers",
                              std::to_string(runtime::BatchPool::MaxPoolWorkers));
  benchmark::AddCustomContext("pool_break_even_ns",
                              std::to_string(runtime::PoolBreakEvenNs));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
