//===- bench/batch_strategies.cpp - batched strategy comparison ------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compares the batched codegen strategies (see slingen::BatchStrategy)
// head to head -- the scalar loop ("loop") and the instance-parallel form
// ("fused") -- on potrf across tiny sizes {4, 8, 16} and on the
// gemm-flavored trsyl {4, 8}, for batch counts {32, 1024} plus the
// remainder-heavy {33, 1025} (count % Nu == 1 for every supported Nu: the
// worst-case masked-tail path): the workload shape the paper's Sec. 5
// "batched computations" sketch targets. On multicore hosts both variants
// additionally get threaded rows ("-mt<k>", workers pinned to cores)
// and unpinned counterparts ("-mt<k>-nopin") dispatched through the
// runtime batch thread pool, so the affinity win is itself measured. A
// google-benchmark binary so `tools/bench_batch.sh` can record
// BENCH_batch.json for the perf trajectory; CPU/NUMA topology is recorded
// in the JSON context so rows from different hosts are comparable.
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

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace slingen;

namespace {

/// One compiled batched kernel plus its instance buffers, shared by every
/// count-variant of the benchmark (registered lambdas copy the shared_ptr).
struct BatchBench {
  runtime::JitKernel Kernel;
  std::vector<AlignedBuffer> Store; ///< per-param, MaxCount instances
  std::vector<double *> Bufs;

  BatchBench(runtime::JitKernel K) : Kernel(std::move(K)) {}
};

constexpr int MaxCount = 1025;

/// Structure-respecting inputs: SPD for positive-definite operands,
/// well-conditioned triangular for triangular ones, general data for other
/// inputs, zeros for outputs. Inputs are read-only for potrf/trsyl (X is
/// the only written operand), so timed runs need no refill.
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
    auto &Buf = B->Store.emplace_back(Sz * MaxCount);
    if (P->IO == IOKind::Out)
      continue;
    for (int Inst = 0; Inst < MaxCount; ++Inst) {
      Rng Rand(100 + 131 * Inst + static_cast<int>(B->Store.size()));
      std::vector<double> Mat;
      if (P->PosDef)
        Mat = bench::randSpd(P->Rows, Rand);
      else if (P->Structure == StructureKind::LowerTriangular)
        Mat = bench::randLowerTri(P->Rows, Rand);
      else if (P->Structure == StructureKind::UpperTriangular)
        Mat = bench::randUpperTri(P->Rows, Rand);
      else
        Mat = bench::randGeneral(P->Rows, P->Cols, Rand);
      std::copy(Mat.begin(), Mat.end(),
                Buf.data() + static_cast<size_t>(Inst) * Sz);
    }
  }
  for (auto &S : B->Store)
    B->Bufs.push_back(S.data());
  return B;
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
  const int MT = runtime::defaultBatchThreads();
  for (const auto &V : Variants) {
    if (V.Source.empty())
      continue;
    std::shared_ptr<BatchBench> B = makeBench(*R, V.Source, IsaFlags);
    if (!B)
      continue;
    // 33 and 1025 are == 1 (mod 2, 4, and 8): every supported Nu pays the
    // worst-case one-lane masked tail on top of the full-block loop.
    for (int Count : {32, 33, 1024, 1025}) {
      std::string Base = std::string(Label) + "/n=" + std::to_string(N) +
                         "/count=" + std::to_string(Count) + "/";
      benchmark::RegisterBenchmark(
          (Base + V.Name).c_str(), [B, Count](benchmark::State &State) {
            for (auto _ : State) {
              B->Kernel.callBatch(Count, B->Bufs.data());
              benchmark::ClobberMemory();
            }
            State.SetItemsProcessed(State.iterations() * Count);
          });
      if (MT > 1) {
        const int Nu = hostIsa().Nu;
        // Pinned (default) and unpinned pool rows: the delta is the
        // affinity win for this kernel/count on this host.
        for (bool Pin : {true, false}) {
          std::string Name = Base + V.Name + "-mt" + std::to_string(MT) +
                             (Pin ? "" : "-nopin");
          benchmark::RegisterBenchmark(
              Name.c_str(), [B, Count, Nu, MT, Pin](benchmark::State &State) {
                runtime::BatchPool::setPinning(Pin);
                for (auto _ : State) {
                  runtime::callBatchParallel(B->Kernel, Count,
                                             B->Bufs.data(), Nu, MT);
                  benchmark::ClobberMemory();
                }
                runtime::BatchPool::setPinning(true);
                State.SetItemsProcessed(State.iterations() * Count);
              });
        }
      }
    }
  }
}

/// NUMA node count from sysfs (no libnuma dependency); 1 when the
/// topology is not exposed.
int numaNodeCount() {
  int Nodes = 0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(
           "/sys/devices/system/node", Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind("node", 0) == 0 &&
        Name.find_first_not_of("0123456789", 4) == std::string::npos)
      ++Nodes;
  }
  return Nodes > 0 ? Nodes : 1;
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
  if (runtime::defaultBatchThreads() < 2)
    fprintf(stderr, "batch_strategies: single-core host; threaded rows "
                    "skipped\n");
  if (!Skip) {
    for (int N : {4, 8, 16})
      registerKernel("potrf", la::potrfSource(N), N);
    for (int N : {4, 8})
      registerKernel("trsyl", la::trsylSource(N), N);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  // Topology context so pinned/unpinned rows from different hosts stay
  // interpretable in the recorded JSON.
  benchmark::AddCustomContext(
      "ncpus", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("numa_nodes", std::to_string(numaNodeCount()));
  benchmark::AddCustomContext(
      "batch_threads", std::to_string(runtime::defaultBatchThreads()));
  benchmark::AddCustomContext("pool_max_workers",
                              std::to_string(runtime::BatchPool::MaxPoolWorkers));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
