//===- bench/ablation_passes.cpp - pass/stage ablation study ---------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the generator's design choices on the potrf kernel (the
// per-layer `cir.*`/`lgen.*` metrics of slbench/README.md track the same
// passes end to end):
//   - the Stage 3 load/store analysis (shuffles/blends instead of memory
//     round-trips, paper Figs. 11/12),
//   - the Stage 2 scalar-merging rules R0/R1 (paper Table 2),
//   - loop unrolling and CSE.
// Measured with google-benchmark over the C-IR *interpreter* (deterministic
// instruction-level cost, no JIT noise), plus static instruction counts.
//
//===----------------------------------------------------------------------===//

#include "cir/Interp.h"
#include "cir/Passes.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

using namespace slingen;

namespace {

struct Config {
  const char *Name;
  bool VectorRules, Unroll, Cse, LoadStoreOpt, Dce;
};

const Config Configs[] = {
    {"full", true, true, true, true, true},
    {"no-loadstore", true, true, true, false, true},
    {"no-vecrules", false, true, true, true, true},
    {"no-unroll", true, false, true, true, true},
    {"no-cse", true, true, false, true, false},
    {"none", false, false, false, false, false},
};

GenResult makeKernel(int N, const Config &C) {
  std::string Err;
  auto P = la::compileLa(la::potrfSource(N), Err);
  GenOptions O;
  O.Isa = &avxIsa();
  O.ApplyVectorRules = C.VectorRules;
  O.EnableUnroll = C.Unroll;
  O.EnableCse = C.Cse;
  O.EnableLoadStoreOpt = C.LoadStoreOpt;
  O.EnableDce = C.Dce;
  Generator G(std::move(*P), O);
  auto R = G.best(3);
  return std::move(*R);
}

void BM_PotrfAblation(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  const Config &C = Configs[State.range(1)];
  GenResult R = makeKernel(N, C);

  // SPD input.
  Rng Rand(N);
  std::vector<double> A(static_cast<size_t>(N) * N, 0.0);
  {
    std::vector<double> B(static_cast<size_t>(N) * N);
    for (double &V : B)
      V = Rand.uniform(-1.0, 1.0);
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < N; ++J) {
        double S = I == J ? N : 0.0;
        for (int P2 = 0; P2 < N; ++P2)
          S += B[P2 * N + I] * B[P2 * N + J];
        A[I * N + J] = S;
      }
  }
  std::map<const Operand *, double *> Bufs;
  std::vector<std::vector<double>> Storage;
  for (const Operand *P : R.Func.Params) {
    Storage.emplace_back(static_cast<size_t>(P->Rows) * P->Cols, 0.0);
    if (P->Name == "A")
      Storage.back() = A;
  }
  size_t Idx = 0;
  for (const Operand *P : R.Func.Params)
    Bufs[P] = Storage[Idx++].data();

  for (auto _ : State)
    cir::interpret(R.Func, Bufs);

  State.SetLabel(C.Name);
  State.counters["static_insts"] = cir::countInsts(R.Func);
  State.counters["static_cost"] = static_cast<double>(R.Cost);
}

} // namespace

BENCHMARK(BM_PotrfAblation)
    ->ArgsProduct({{8, 16, 28}, {0, 1, 2, 3, 4, 5}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
