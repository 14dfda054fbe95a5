//===- tests/batch_test.cpp - batched kernel extension ---------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The batched entry point (paper Sec. 5 future work, implemented here as
// an extension) must compute exactly count independent instances. JIT
// required; skipped without a system compiler.
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"
#include "cir/Interp.h"
#include "cir/Verify.h"
#include "cir/Passes.h"
#include "cir/Widen.h"
#include "client/ClientImpl.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "obs/Metrics.h"
#include "runtime/BatchPool.h"
#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "service/KernelService.h"
#include "service/Tuner.h"
#include "slingen/SLinGen.h"
#include "support/AlignedBuffer.h"
#include "support/File.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include <stdlib.h>

using namespace slingen;
using namespace slingen::testdata;

namespace {

/// Fixture oracle: widened emissions must pass the static verifier before
/// the suite interprets or compiles them (cir/Verify.h).
void expectVerifies(const cir::Function &F) {
  for (const cir::VerifyError &E : cir::verify(F))
    ADD_FAILURE() << "verifier rejected " << F.Name << ": " << E.str();
}

std::optional<GenResult> mustGenerate(const std::string &Source,
                                      const VectorISA &Isa,
                                      const std::string &Name) {
  std::string Err;
  auto P = la::compileLa(Source, Err);
  if (!P) {
    ADD_FAILURE() << "LA error: " << Err;
    return std::nullopt;
  }
  GenOptions O;
  O.Isa = &Isa;
  O.FuncName = Name;
  Generator G(std::move(*P), O);
  if (!G.isValid()) {
    ADD_FAILURE() << "generator error: " << G.error();
    return std::nullopt;
  }
  auto R = G.best(3);
  if (!R)
    ADD_FAILURE() << "generation failed for " << Name;
  return R;
}

/// Per-parameter deterministic instance data for a potrf/trsyl-style
/// program: SPD for <PD> inputs, well-conditioned triangular for <LoTri>/
/// <UpTri> inputs, general data otherwise, zeros for outputs. Cache-line
/// aligned: batch base pointers cross the `_batch` ABI, which debug-asserts
/// 64-byte alignment (see runtime/Jit.h).
std::vector<AlignedBuffer> makeInstances(const cir::Function &F, int Count,
                                         int SeedBase) {
  std::vector<AlignedBuffer> Store;
  for (size_t I = 0; I < F.Params.size(); ++I) {
    const Operand *P = F.Params[I];
    size_t Sz = static_cast<size_t>(P->Rows) * P->Cols;
    AlignedBuffer Buf(static_cast<size_t>(Count) * Sz);
    bool NeedsData = P->IO != IOKind::Out; // In/InOut roots carry inputs
    for (int B = 0; B < Count && NeedsData; ++B) {
      Rng Rand(SeedBase + 131 * B + static_cast<int>(I));
      std::vector<double> Inst;
      if (P->PosDef)
        Inst = spd(P->Rows, Rand);
      else if (P->Structure == StructureKind::LowerTriangular)
        Inst = lowerTri(P->Rows, Rand);
      else if (P->Structure == StructureKind::UpperTriangular)
        Inst = upperTri(P->Rows, Rand);
      else
        Inst = general(P->Rows, P->Cols, Rand);
      std::copy(Inst.begin(), Inst.end(), Buf.begin() + B * Sz);
    }
    Store.push_back(std::move(Buf));
  }
  return Store;
}

TEST(Batched, EmittedTextHasBatchEntry) {
  std::string Err;
  auto P = la::compileLa(la::potrfSource(8), Err);
  ASSERT_TRUE(P) << Err;
  GenOptions O;
  O.Isa = &avxIsa();
  O.FuncName = "potrf8";
  Generator G(std::move(*P), O);
  ASSERT_TRUE(G.isValid());
  auto R = G.best(3);
  ASSERT_TRUE(R);
  std::string C = emitBatchedC(*R);
  EXPECT_NE(C.find("void potrf8_batch(int count"), std::string::npos);
  EXPECT_NE(C.find("for (int b = 0; b < count; ++b)"), std::string::npos);
}

TEST(Batched, MatchesIndividualRuns) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int N = 8, Count = 5;
  std::string Err;
  auto P = la::compileLa(la::potrfSource(N), Err);
  ASSERT_TRUE(P) << Err;
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "potrf_b";
  Generator G(std::move(*P), O);
  ASSERT_TRUE(G.isValid());
  auto R = G.best(3);
  ASSERT_TRUE(R);
  const auto &Params = R->Func.Params;
  ASSERT_EQ(Params.size(), 2u); // A (in), X (out)

  // One TU with both the plain kernel and a fixed-count wrapper around the
  // batch loop; the wrapper keeps the kernel's parameter order, so both
  // entries share the same buffer-array call convention.
  std::string C = emitBatchedC(*R);
  C += "\nvoid potrf_batch_fixed(";
  for (size_t I = 0; I < Params.size(); ++I)
    C += std::string(I ? ", " : "") + "double *restrict " +
         Params[I]->Name;
  C += ") {\n  potrf_b_batch(" + std::to_string(Count);
  for (const Operand *Param : Params)
    C += ", " + Param->Name;
  C += ");\n}\n";

  auto KSingle = runtime::JitKernel::compile(C, "potrf_b", 2, Err);
  ASSERT_TRUE(KSingle) << Err;
  auto KBatch = runtime::JitKernel::compile(C, "potrf_batch_fixed", 2, Err);
  ASSERT_TRUE(KBatch) << Err;

  // Contiguous per-parameter instance arrays.
  std::vector<std::vector<double>> RefStore(2), BatchStore(2);
  for (size_t I = 0; I < 2; ++I) {
    size_t Sz = static_cast<size_t>(Params[I]->Rows) * Params[I]->Cols;
    RefStore[I].assign(Count * Sz, 0.0);
    BatchStore[I].assign(Count * Sz, 0.0);
  }
  for (int B = 0; B < Count; ++B) {
    Rng Rand(1000 + B);
    auto A = spd(N, Rand);
    for (size_t I = 0; I < 2; ++I)
      if (Params[I]->Name == "A") {
        std::copy(A.begin(), A.end(), RefStore[I].begin() + B * N * N);
        std::copy(A.begin(), A.end(), BatchStore[I].begin() + B * N * N);
      }
  }

  // Reference: individual calls.
  for (int B = 0; B < Count; ++B) {
    double *Bufs[2] = {RefStore[0].data() + B * N * N,
                       RefStore[1].data() + B * N * N};
    KSingle->call(Bufs);
  }
  // Batched: one call.
  double *Bufs[2] = {BatchStore[0].data(), BatchStore[1].data()};
  KBatch->call(Bufs);

  for (size_t I = 0; I < 2; ++I)
    EXPECT_LT(maxAbsDiff(BatchStore[I], RefStore[I]), 1e-12)
        << Params[I]->Name;
}

// The lane-widening walk is exact -- and needs no packing at all: the
// widened function is interpreted straight over the batch ABI's contiguous
// per-instance arrays (its locals in the AoSoA layout) and must reproduce
// the scalar interpreter bit for bit (same IEEE operations in the same
// order, one instance per lane). This is the hermetic (compiler-free)
// anchor for the instance-parallel strategy.
TEST(Widen, FusedInterpreterMatchesScalarOnBatchLayout) {
  const int N = 6, Nu = 4;
  auto Gen = mustGenerate(la::potrfSource(N), scalarIsa(), "p6f");
  ASSERT_TRUE(Gen);
  GenResult &R = *Gen;
  auto W = cir::widenAcrossInstancesFused(R.Func, Nu, "p6f_blk");
  ASSERT_TRUE(W);
  expectVerifies(W->Func);
  EXPECT_EQ(W->Func.Nu, Nu);
  EXPECT_EQ(W->Func.LocalVecWidth, Nu);

  const auto &Params = R.Func.Params;
  std::vector<AlignedBuffer> Inst = makeInstances(R.Func, Nu, 7700);
  std::vector<AlignedBuffer> Ref = Inst;

  // Reference: scalar interpretation, one instance at a time.
  for (int B = 0; B < Nu; ++B) {
    std::map<const Operand *, double *> Bufs;
    for (size_t I = 0; I < Params.size(); ++I) {
      size_t Sz = static_cast<size_t>(Params[I]->Rows) * Params[I]->Cols;
      Bufs[Params[I]] = Ref[I].data() + B * Sz;
    }
    cir::interpret(R.Func, Bufs);
  }

  // Fused: one interpretation over the untransposed batch buffers.
  std::map<const Operand *, double *> Bufs;
  for (size_t I = 0; I < Params.size(); ++I)
    Bufs[Params[I]] = Inst[I].data();
  cir::interpret(W->Func, Bufs);

  for (size_t I = 0; I < Params.size(); ++I)
    EXPECT_EQ(maxAbsDiff(Inst[I], Ref[I]), 0.0) << Params[I]->Name;
}

// The masked fused widening is the hermetic anchor for the batch tail:
// interpreting it with active_ = r must reproduce the scalar interpreter
// bit for bit on the first r instances and leave instances >= r untouched
// (dead lanes load zeros, compute in parallel, and are never stored).
TEST(Widen, MaskedFusedInterpreterMatchesScalarOnActivePrefix) {
  const int N = 6, Nu = 4;
  auto Gen = mustGenerate(la::potrfSource(N), scalarIsa(), "p6m");
  ASSERT_TRUE(Gen);
  GenResult &R = *Gen;
  auto W = cir::widenAcrossInstancesFusedMasked(R.Func, Nu, "p6m_tail");
  ASSERT_TRUE(W);
  expectVerifies(W->Func);
  EXPECT_TRUE(W->Func.HasTailMask);

  const auto &Params = R.Func.Params;
  for (int Active = 1; Active < Nu; ++Active) {
    std::vector<AlignedBuffer> Inst = makeInstances(R.Func, Nu, 8200);
    std::vector<AlignedBuffer> Ref = Inst;

    // Scalar reference touches exactly the first Active instances, so the
    // bit-exact whole-buffer comparison below also proves the masked run
    // left instances >= Active untouched.
    for (int B = 0; B < Active; ++B) {
      std::map<const Operand *, double *> Bufs;
      for (size_t I = 0; I < Params.size(); ++I) {
        size_t Sz = static_cast<size_t>(Params[I]->Rows) * Params[I]->Cols;
        Bufs[Params[I]] = Ref[I].data() + B * Sz;
      }
      cir::interpret(R.Func, Bufs);
    }

    std::map<const Operand *, double *> Bufs;
    for (size_t I = 0; I < Params.size(); ++I)
      Bufs[Params[I]] = Inst[I].data();
    cir::interpret(W->Func, Bufs, Active);

    for (size_t I = 0; I < Params.size(); ++I)
      EXPECT_EQ(maxAbsDiff(Inst[I], Ref[I]), 0.0)
          << "active=" << Active << ", param " << Params[I]->Name;
  }
}

TEST(Widen, RejectsVectorInput) {
  auto R = mustGenerate(la::potrfSource(8), avxIsa(), "p8v");
  ASSERT_TRUE(R);
  EXPECT_FALSE(cir::widenAcrossInstancesFused(R->Func, 4, "p8v_fblk"));
  auto S = mustGenerate(la::potrfSource(8), scalarIsa(), "p8s");
  ASSERT_TRUE(S);
  EXPECT_FALSE(cir::widenAcrossInstancesFused(S->Func, 1, "p8s_blk"));
}

/// JIT-compiles both batched strategies for \p Source under \p Isa and
/// verifies the instance-parallel form agrees with the scalar loop for
/// every count in \p Counts (covering count < Nu, count % Nu != 0, and
/// multi-block batches).
void expectStrategiesAgree(const std::string &Source, const VectorISA &Isa,
                           const std::string &Name,
                           const std::vector<int> &Counts, double Tol) {
  auto Gen = mustGenerate(Source, Isa, Name);
  ASSERT_TRUE(Gen);
  GenResult &R = *Gen;
  GenOptions O;
  O.Isa = &Isa;
  O.FuncName = Name;
  std::string LoopC = emitBatchedC(R);
  std::string FusedC = emitBatchedVectorFusedC(R, &O);
  ASSERT_NE(FusedC.find(Name + "_fusedblk"), std::string::npos)
      << "fused emission fell back on " << Isa.Name;

  runtime::CompileOptions CO;
  CO.ExtraFlags = runtime::isaCompileFlags(Isa);
  CO.WithBatchEntry = true;
  std::string Err;
  int NumParams = static_cast<int>(R.Func.Params.size());
  auto KLoop = runtime::JitKernel::compile(LoopC, Name, NumParams, CO, Err);
  ASSERT_TRUE(KLoop) << Err;
  auto KFused = runtime::JitKernel::compile(FusedC, Name, NumParams, CO,
                                            Err);
  ASSERT_TRUE(KFused) << Err;

  for (int Count : Counts) {
    std::vector<AlignedBuffer> LoopStore =
        makeInstances(R.Func, Count, 9000 + Count);
    std::vector<AlignedBuffer> Store = LoopStore;
    std::vector<double *> LoopBufs, Bufs;
    for (auto &S : LoopStore)
      LoopBufs.push_back(S.data());
    for (auto &S : Store)
      Bufs.push_back(S.data());
    KLoop->callBatch(Count, LoopBufs.data());
    KFused->callBatch(Count, Bufs.data());
    double Nonzero = 0.0;
    for (size_t I = 0; I < LoopStore.size(); ++I) {
      EXPECT_LT(maxAbsDiff(Store[I], LoopStore[I]), Tol)
          << Name << "/fused on " << Isa.Name << ", count=" << Count
          << ", param " << R.Func.Params[I]->Name;
      for (double V : Store[I])
        Nonzero += std::fabs(V);
    }
    EXPECT_GT(Nonzero, 0.0) << "fused wrote nothing";
  }
}

// Instance-parallel results must match the scalar loop for every ISA this
// host can execute. The tolerance is tight but not bit-exact: the two
// strategies expose different mul+add sequences to the C compiler's FMA
// contraction, which is the only permitted divergence (div/sqrt chains
// amplify it slightly).
TEST(Batched, InstanceParallelMatchesScalarLoopAcrossIsas) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int HostNu = hostIsa().Nu;
  if (HostNu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  for (const VectorISA *Isa : {&sse2Isa(), &avxIsa(), &avx512Isa()}) {
    if (Isa->Nu > HostNu)
      continue;
    int Nu = Isa->Nu;
    std::vector<int> Counts = {1, Nu - 1, Nu, 2 * Nu + 1, 4 * Nu};
    expectStrategiesAgree(la::potrfSource(8), *Isa,
                          std::string("potrf8_") + Isa->Name, Counts, 1e-10);
  }
}

TEST(Batched, TrsylInstanceParallelMatchesScalarLoop) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const VectorISA &Isa = hostIsa();
  if (Isa.Nu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  std::vector<int> Counts = {Isa.Nu - 1, 3 * Isa.Nu + 2};
  expectStrategiesAgree(la::trsylSource(6), Isa, "trsyl6", Counts, 1e-9);
}

// The fused emission must run the count % Nu remainder through the masked
// widened tail block, not a scalar fallback loop.
TEST(Batched, FusedEmissionHasMaskedTailNotScalarRemainder) {
  auto Gen = mustGenerate(la::potrfSource(8), avxIsa(), "p8tl");
  ASSERT_TRUE(Gen);
  GenOptions O;
  O.Isa = &avxIsa();
  O.FuncName = "p8tl";
  std::string C = emitBatchedVectorFusedC(*Gen, &O);
  ASSERT_NE(C.find("p8tl_fusedblk"), std::string::npos);
  EXPECT_NE(C.find("p8tl_fusedtail"), std::string::npos)
      << "fused batch must emit a masked tail block";
  EXPECT_NE(C.find("int active_"), std::string::npos);
  EXPECT_EQ(C.find("for (; b < count; ++b)"), std::string::npos)
      << "fused batch must not fall back to a scalar remainder loop";
}

// The masked tail's active lanes run the exact instruction sequence of a
// full fused block, so a ragged batch must be bit-identical to running the
// same instances inside a padded Nu-divisible batch -- for every residue
// on every ISA this host can execute.
TEST(Batched, MaskedTailBitIdenticalToPaddedFullBlocks) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int HostNu = hostIsa().Nu;
  if (HostNu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  for (const VectorISA *Isa : {&sse2Isa(), &avxIsa(), &avx512Isa()}) {
    if (Isa->Nu > HostNu)
      continue;
    const int Nu = Isa->Nu;
    std::string Name = std::string("p6pad_") + Isa->Name;
    auto Gen = mustGenerate(la::potrfSource(6), *Isa, Name);
    ASSERT_TRUE(Gen);
    GenResult &R = *Gen;
    GenOptions O;
    O.Isa = Isa;
    O.FuncName = Name;
    std::string C = emitBatchedVectorFusedC(R, &O);
    ASSERT_NE(C.find(Name + "_fusedtail"), std::string::npos)
        << "fused emission fell back on " << Isa->Name;
    runtime::CompileOptions CO;
    CO.ExtraFlags = runtime::isaCompileFlags(*Isa);
    CO.WithBatchEntry = true;
    std::string Err;
    auto K = runtime::JitKernel::compile(
        C, Name, static_cast<int>(R.Func.Params.size()), CO, Err);
    ASSERT_TRUE(K) << Err;

    for (int Residue = 1; Residue < Nu; ++Residue) {
      const int Count = 2 * Nu + Residue, Padded = 3 * Nu;
      // makeInstances seeds per instance, so the padded batch extends the
      // ragged one with identical leading instances.
      std::vector<AlignedBuffer> Ragged =
          makeInstances(R.Func, Count, 8800 + Nu);
      std::vector<AlignedBuffer> Full =
          makeInstances(R.Func, Padded, 8800 + Nu);
      std::vector<double *> RBufs, FBufs;
      for (auto &S : Ragged)
        RBufs.push_back(S.data());
      for (auto &S : Full)
        FBufs.push_back(S.data());
      K->callBatch(Count, RBufs.data());
      K->callBatch(Padded, FBufs.data());
      for (size_t I = 0; I < Ragged.size(); ++I) {
        size_t Sz = static_cast<size_t>(R.Func.Params[I]->Rows) *
                    R.Func.Params[I]->Cols;
        double M = 0.0;
        for (size_t E = 0; E < Sz * Count; ++E)
          M = std::max(M, std::fabs(Ragged[I][E] - Full[I][E]));
        EXPECT_EQ(M, 0.0) << Isa->Name << " residue=" << Residue
                          << ", param " << R.Func.Params[I]->Name;
      }
    }
  }
}

// Interpreter-vs-JIT oracle for the masked tail function itself: the
// emitted C (compiled with FMA contraction pinned off, so the only fused
// multiply-adds are the ones the IR-level contraction placed) must agree
// bit for bit with the interpreter at every active lane count.
TEST(Batched, MaskedTailJitMatchesInterpreterBitExactly) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int HostNu = hostIsa().Nu;
  if (HostNu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  for (const VectorISA *Isa : {&sse2Isa(), &avxIsa(), &avx512Isa()}) {
    if (Isa->Nu > HostNu)
      continue;
    const int Nu = Isa->Nu;
    std::string Name = std::string("p6orc_") + Isa->Name;
    auto Gen = mustGenerate(la::potrfSource(6), scalarIsa(), Name);
    ASSERT_TRUE(Gen);
    GenResult &R = *Gen;
    auto W = cir::widenAcrossInstancesFusedMasked(R.Func, Nu,
                                                  Name + "_tail");
    ASSERT_TRUE(W);
    // Same pipeline as the production fused emission: explicit IR-level
    // contraction on FMA-capable widths (the interpreter mirrors it).
    if (Nu >= 4)
      cir::contractFma(W->Func);
    expectVerifies(W->Func);

    const auto &Params = R.Func.Params;
    // The uniform trampoline only passes double pointers, so the oracle
    // wrapper smuggles active_ through a pointed-to double.
    std::string C = cir::emitTranslationUnit(W->Func);
    C += "\nvoid " + Name + "_w(";
    for (const Operand *P : Params)
      C += "double *" + P->Name + ", ";
    C += "double *activep) {\n  " + Name + "_tail(";
    for (const Operand *P : Params)
      C += P->Name + ", ";
    C += "(int)*activep);\n}\n";
    std::string Err;
    auto K = runtime::JitKernel::compile(
        C, Name + "_w", static_cast<int>(Params.size()) + 1, Err,
        runtime::isaCompileFlags(*Isa) + " -ffp-contract=off");
    ASSERT_TRUE(K) << Err;

    for (int Active = 1; Active < Nu; ++Active) {
      std::vector<AlignedBuffer> Jit = makeInstances(R.Func, Nu, 8400);
      std::vector<AlignedBuffer> Itp = Jit;
      double ActiveD = Active;
      std::vector<double *> JBufs;
      for (auto &S : Jit)
        JBufs.push_back(S.data());
      JBufs.push_back(&ActiveD);
      K->call(JBufs.data());

      std::map<const Operand *, double *> Bufs;
      for (size_t I = 0; I < Params.size(); ++I)
        Bufs[Params[I]] = Itp[I].data();
      cir::interpret(W->Func, Bufs, Active);

      for (size_t I = 0; I < Params.size(); ++I)
        EXPECT_EQ(maxAbsDiff(Jit[I], Itp[I]), 0.0)
            << Isa->Name << " active=" << Active << ", param "
            << Params[I]->Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Batch thread pool and threaded dispatch.
//===----------------------------------------------------------------------===//

// Every block index is handed out exactly once, whatever the ratio of
// items to threads (more threads than items, odd chunking, single item).
TEST(BatchPool, CoversEveryIndexExactlyOnce) {
  // 63/65/1025 straddle block boundaries: off-by-one partitions show up
  // as a dropped or double-claimed edge index.
  for (long Items : {1L, 7L, 63L, 64L, 65L, 1000L, 1025L}) {
    for (int Threads : {1, 2, 4, 9}) {
      std::vector<std::atomic<int>> Hits(Items);
      for (auto &H : Hits)
        H.store(0);
      runtime::BatchPool::shared().run(Items, Threads,
                                       [&](long Lo, long Hi) {
                                         for (long I = Lo; I < Hi; ++I)
                                           Hits[I].fetch_add(1);
                                       });
      for (long I = 0; I < Items; ++I)
        EXPECT_EQ(Hits[I].load(), 1)
            << "item " << I << " items=" << Items
            << " threads=" << Threads;
    }
  }
}

// Back-to-back runs of changing widths: each run's job and output live on
// the caller's stack and die when run() returns, so a worker that wakes
// late, or leaves drain after the caller moved on, would touch a finished
// run. The sanitizer legs turn that into a report; every leg checks that
// each run still covers its items exactly once.
TEST(BatchPool, BackToBackRunsOfMixedWidths) {
  const int Widths[] = {2, 4, 9};
  const long Sizes[] = {2, 3, 5, 65};
  for (int Run = 0; Run < 3000; ++Run) {
    const int Threads = Widths[Run % 3];
    const long Items = Sizes[Run % 4];
    std::array<int, 65> Hits{};
    runtime::BatchPool::shared().run(Items, Threads, [&](long Lo, long Hi) {
      for (long I = Lo; I < Hi; ++I)
        ++Hits[I];
    });
    for (long I = 0; I < 65; ++I)
      ASSERT_EQ(Hits[I], I < Items ? 1 : 0)
          << "run " << Run << " item " << I << " items=" << Items
          << " threads=" << Threads;
  }
}

// callBatchParallel's one decision, at its boundary: pool iff the
// projected inline work reaches PoolBreakEvenNs. No timing involved.
TEST(BatchPool, PoolPaysFromTheBreakEven) {
  constexpr int64_t W = runtime::PoolBreakEvenNs;
  static_assert(W > 2 && W < UINT32_MAX);
  EXPECT_TRUE(runtime::poolPays(1, W));
  EXPECT_FALSE(runtime::poolPays(1, W - 1));
  EXPECT_TRUE(runtime::poolPays(W, 1));
  EXPECT_FALSE(runtime::poolPays(W - 1, 1));
  EXPECT_TRUE(runtime::poolPays(2, (W + 1) / 2));
  EXPECT_FALSE(runtime::poolPays(2, (W - 1) / 2));
  EXPECT_FALSE(runtime::poolPays(0, UINT32_MAX));
  // The extremes do not overflow: an uncalibrated cost (UINT32_MAX) over
  // the most blocks an int count can hold.
  EXPECT_TRUE(runtime::poolPays(INT32_MAX, UINT32_MAX));
}

/// Compiles \p R's fused batched emission for \p Isa as \p Name.
std::optional<runtime::JitKernel> compileFused(const GenResult &R,
                                               const VectorISA &Isa,
                                               const std::string &Name) {
  GenOptions O;
  O.Isa = &Isa;
  O.FuncName = Name;
  runtime::CompileOptions CO;
  CO.ExtraFlags = runtime::isaCompileFlags(Isa);
  CO.WithBatchEntry = true;
  std::string Err;
  auto K = runtime::JitKernel::compile(emitBatchedVectorFusedC(R, &O), Name,
                                       static_cast<int>(R.Func.Params.size()),
                                       CO, Err);
  if (!K)
    ADD_FAILURE() << Err;
  return K;
}

/// Runs \p K over a copy of \p Init, through callBatchParallel when
/// \p Threads > 1 and through a plain callBatch otherwise.
std::vector<AlignedBuffer> runBatch(const runtime::JitKernel &K,
                                    const std::vector<AlignedBuffer> &Init,
                                    int Count, int Nu, int Threads) {
  std::vector<AlignedBuffer> Store = Init;
  std::vector<double *> Bufs;
  for (auto &S : Store)
    Bufs.push_back(S.data());
  if (Threads <= 1)
    K.callBatch(Count, Bufs.data());
  else
    runtime::callBatchParallel(K, Count, Bufs.data(), Nu, Threads);
  return Store;
}

// Threaded dispatch must be a pure scheduling change: instances land in
// disjoint buffer ranges, every instance runs the same code, so the result
// is bit-identical to a single-threaded callBatch -- including the
// count % Nu remainder, which runs on the calling thread -- whether the
// batch runs on the caller or on the pool.
TEST(Batched, ThreadedDispatchIsBitIdenticalToSingleThread) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const VectorISA &Isa = hostIsa();
  if (Isa.Nu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  auto Gen = mustGenerate(la::potrfSource(8), Isa, "p8mt");
  ASSERT_TRUE(Gen);
  GenResult &R = *Gen;
  auto K = compileFused(R, Isa, "p8mt");
  ASSERT_TRUE(K); // a batched load requires the span entry

  obs::Counter &PoolRuns =
      obs::Registry::global().counter("batchpool.runs");
  // Several blocks plus a remainder; then 2000 blocks of potrf8, over 10x
  // PoolBreakEvenNs of inline work on an AVX-512 host (~330 ns a block;
  // more on narrower ones or under a sanitizer), so that one must take
  // the pool.
  for (int Count : {9 * Isa.Nu + 3, 2000 * Isa.Nu + 3}) {
    const bool Big = Count > 1000;
    std::vector<AlignedBuffer> Init = makeInstances(R.Func, Count, 6100);
    std::vector<AlignedBuffer> Single = runBatch(*K, Init, Count, Isa.Nu, 1);
    // 4 threads even on narrower hosts: the pool oversubscribes, so chunks
    // are claimed by several threads everywhere.
    for (int Threads : {2, 4}) {
      const int64_t RunsBefore = PoolRuns.value();
      std::vector<AlignedBuffer> Threaded =
          runBatch(*K, Init, Count, Isa.Nu, Threads);
      for (size_t I = 0; I < Single.size(); ++I)
        EXPECT_EQ(maxAbsDiff(Threaded[I], Single[I]), 0.0)
            << "count=" << Count << " threads=" << Threads << ", param "
            << R.Func.Params[I]->Name;
      if (Big)
        EXPECT_GT(PoolRuns.value(), RunsBefore)
            << "count=" << Count << " threads=" << Threads
            << " did not reach the pool";
    }
    if (Big)
      continue;
    // A direct span sanity check: running [0, Count) in two manual halves
    // equals one call.
    std::vector<AlignedBuffer> Store = Init;
    std::vector<double *> Bufs;
    for (auto &S : Store)
      Bufs.push_back(S.data());
    int Half = (Count / 2 / Isa.Nu) * Isa.Nu; // block-aligned split
    K->callBatchSpan(0, Half, Bufs.data());
    K->callBatchSpan(Half, Count - Half, Bufs.data());
    for (size_t I = 0; I < Single.size(); ++I)
      EXPECT_EQ(maxAbsDiff(Store[I], Single[I]), 0.0)
          << "span halves, param " << R.Func.Params[I]->Name;
  }
}

// Several callers dispatch threaded batches on one fresh object while its
// per-block cost is still being calibrated: they share the object's
// running minimum (the thread sanitizer leg checks its atomics), and each
// caller's results stay bit-identical to a single-threaded callBatch.
TEST(Batched, ThreadedDispatchDuringCalibrationFromSeveralCallers) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const VectorISA &Isa = hostIsa();
  if (Isa.Nu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  auto Gen = mustGenerate(la::potrfSource(4), Isa, "p4cal");
  ASSERT_TRUE(Gen);
  GenResult &R = *Gen;
  auto K = compileFused(R, Isa, "p4cal");
  ASSERT_TRUE(K);

  const int Count = 40 * Isa.Nu + 3;
  std::vector<AlignedBuffer> Init = makeInstances(R.Func, Count, 6300);
  std::vector<AlignedBuffer> Single = runBatch(*K, Init, Count, Isa.Nu, 1);
  constexpr int Callers = 4, Reps = 3;
  std::vector<std::vector<std::vector<AlignedBuffer>>> Out(Callers);
  std::vector<std::thread> Ts;
  for (int C = 0; C < Callers; ++C)
    Ts.emplace_back([&, C] {
      for (int Rep = 0; Rep < Reps; ++Rep)
        Out[C].push_back(runBatch(*K, Init, Count, Isa.Nu, 2 + C % 2));
    });
  for (std::thread &T : Ts)
    T.join();
  for (int C = 0; C < Callers; ++C)
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (size_t I = 0; I < Single.size(); ++I)
        EXPECT_EQ(maxAbsDiff(Out[C][Rep][I], Single[I]), 0.0)
            << "caller " << C << " rep " << Rep << ", param "
            << R.Func.Params[I]->Name;
}

//===----------------------------------------------------------------------===//
// Service-level strategy selection and persistence.
//===----------------------------------------------------------------------===//

struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_batch_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

TEST(ServiceBatchStrategy, PinnedFusedServesTransposeFreeEmission) {
  service::ServiceConfig C;
  C.UseCompiler = false;
  C.Strategy = BatchStrategy::InstanceParallelFused;
  C.BatchThreads = 3; // pinned width rides the artifact
  service::KernelService S(C);
  GenOptions O;
  O.Isa = &avxIsa();
  O.FuncName = "p8_fused";
  service::GetResult R = S.get(la::potrfSource(8), O, /*Batched=*/true);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R->Strategy, BatchStrategy::InstanceParallelFused);
  EXPECT_EQ(R->BatchThreads, 3);
  EXPECT_NE(R->CSource.find("p8_fused_fusedblk"), std::string::npos);
  EXPECT_NE(R->CSource.find("p8_fused_batch_span(int start"),
            std::string::npos);

  // Distinct cache entry from Auto, even where Auto would pick fused.
  service::ServiceConfig C2 = C;
  C2.Strategy = BatchStrategy::Auto;
  service::KernelService S2(C2);
  service::GetResult R2 = S2.get(la::potrfSource(8), O, /*Batched=*/true);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_NE(R2->Key, R->Key);
}

TEST(ServiceBatchStrategy, PinnedFusedFallsBackOnScalarIsa) {
  service::ServiceConfig C;
  C.UseCompiler = false;
  C.Strategy = BatchStrategy::InstanceParallelFused;
  service::KernelService S(C);
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "p8_scalar";
  service::GetResult R = S.get(la::potrfSource(8), O, /*Batched=*/true);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R->Strategy, BatchStrategy::ScalarLoop);
  EXPECT_NE(R->CSource.find("p8_scalar_batch(int count"), std::string::npos);
  EXPECT_EQ(R->CSource.find("_fusedblk"), std::string::npos);
}

TEST(ServiceBatchStrategy, PinnedStrategiesGetDistinctEntries) {
  service::ServiceConfig C;
  C.UseCompiler = false;
  C.Strategy = BatchStrategy::ScalarLoop;
  GenOptions O;
  O.Isa = &avxIsa();
  O.FuncName = "p8_pin";
  std::string Src = la::potrfSource(8);

  service::KernelService SLoop(C);
  service::GetResult RLoop = SLoop.get(Src, O, /*Batched=*/true);
  ASSERT_TRUE(RLoop) << RLoop.Error;
  EXPECT_EQ(RLoop->Strategy, BatchStrategy::ScalarLoop);
  EXPECT_EQ(RLoop->CSource.find("_fusedblk"), std::string::npos);

  C.Strategy = BatchStrategy::InstanceParallelFused;
  service::KernelService SFused(C);
  service::GetResult RFused = SFused.get(Src, O, /*Batched=*/true);
  ASSERT_TRUE(RFused) << RFused.Error;
  EXPECT_EQ(RFused->Strategy, BatchStrategy::InstanceParallelFused);
  EXPECT_NE(RFused->CSource.find("p8_pin_fusedblk"), std::string::npos);
  EXPECT_NE(RFused->Key, RLoop->Key)
      << "pinned strategies must be cached independently";
}

TEST(ServiceBatchStrategy, AutoResolvesPersistsAndRoundTrips) {
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "p8_auto";

  BatchStrategy Chosen;
  int ChosenThreads;
  std::string Key;
  {
    service::ServiceConfig C;
    C.CacheDir = Dir.Path;
    ASSERT_EQ(C.Strategy, BatchStrategy::Auto) << "Auto is the default";
    ASSERT_EQ(C.BatchThreads, 0) << "auto thread resolution is the default";
    service::KernelService S(C);
    service::GetResult R = S.get(Src, O, /*Batched=*/true);
    ASSERT_TRUE(R) << R.Error;
    Chosen = R->Strategy;
    ChosenThreads = R->BatchThreads;
    Key = R->Key;
    EXPECT_NE(Chosen, BatchStrategy::Auto)
        << "published artifacts carry a concrete strategy";
    EXPECT_EQ(ChosenThreads, 1) << "the auto thread policy dispatches on one";
    // The static rule resolves Auto; nothing is tuned. The disk tier
    // records the choice.
    EXPECT_EQ(S.stats().TunerRuns, 0);
    std::string Meta =
        Dir.Path + "/" + Key.substr(0, 2) + "/" + Key.substr(2) + ".meta";
    ASSERT_TRUE(std::filesystem::exists(Meta));
    std::ifstream In(Meta);
    std::string MetaText((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(MetaText.find(std::string("strategy=") +
                            batchStrategyName(Chosen)),
              std::string::npos);
    EXPECT_NE(MetaText.find("threads=" + std::to_string(ChosenThreads)),
              std::string::npos)
        << "the resolved dispatch width must ride the .meta";
  }

  // A fresh service honors the persisted choice without re-measuring.
  service::ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  service::KernelService S2(C2);
  service::GetResult R2 = S2.get(Src, O, /*Batched=*/true);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(S2.stats().TunerRuns, 0);
  EXPECT_EQ(R2->Strategy, Chosen);
  EXPECT_EQ(R2->BatchThreads, ChosenThreads);
  EXPECT_EQ(R2->Key, Key);
}

// The static rule's choice on the workloads' kernels: a cost-model edit
// that flips one of them to the scalar loop fails here. Nothing is compiled.
TEST(ServiceBatchStrategy, StaticAutoPicksFusedOnWorkloadKernels) {
  obs::Counter &Compiles =
      obs::Registry::global().counter("runtime.jit-compiles");
  const int64_t Before = Compiles.value();
  const std::pair<const char *, std::string> Kernels[] = {
      {"potrf4", la::potrfSource(4)},   {"potrf8", la::potrfSource(8)},
      {"trsyl4", la::trsylSource(4)},   {"trsyl6", la::trsylSource(6)},
      {"trlya4", la::trlyaSource(4)},   {"trlya6", la::trlyaSource(6)},
      {"trtri8", la::trtriSource(8)},   {"kf4", la::kalmanSource(4, 4)},
      {"gpr6", la::gprSource(6)},       {"l1a6", la::l1aSource(6)}};
  for (const VectorISA *Isa : {&sse2Isa(), &avxIsa(), &avx512Isa()})
    for (const auto &[Name, Src] : Kernels) {
      SCOPED_TRACE(std::string(Name) + " on " + Isa->Name);
      auto Gen = mustGenerate(Src, *Isa, Name);
      ASSERT_TRUE(Gen);
      GenOptions O;
      O.Isa = Isa;
      O.FuncName = Name;
      service::BatchChoice BC =
          service::chooseBatchStrategy(*Gen, O, {}, /*AllowCompile=*/true);
      EXPECT_EQ(BC.Strategy, BatchStrategy::InstanceParallelFused);
      EXPECT_FALSE(BC.Rejected);
      EXPECT_NE(BC.Source.find(std::string(Name) + "_fusedblk"),
                std::string::npos);
    }
  EXPECT_EQ(Compiles.value(), Before) << "the static rule compiled";
}

// Every batched object must define the `_batch_span` sub-range entry that
// threaded dispatch calls: a batched load of one without it fails, naming
// the symbol, and a shipped one surfaces as a protocol error.
TEST(Batched, LoadWithoutSpanEntryFails) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir Dir;
  // The batch entry is hand-written, so compile without the trampolines.
  const std::string C = "void nospan(double *x) { x[0] += 1.0; }\n"
                        "void nospan_batch_entry(int count,\n"
                        "                        double *const *bufs) {\n"
                        "  for (int b = 0; b < count; ++b)\n"
                        "    nospan(bufs[0] + b);\n"
                        "}\n";
  runtime::CompileOptions CO;
  CO.KeepSoPath = Dir.Path + "/nospan.so";
  std::string Err;
  auto Plain = runtime::JitKernel::compile(C, "nospan", 1, CO, Err);
  ASSERT_TRUE(Plain) << Err;

  auto K = runtime::JitKernel::load(CO.KeepSoPath, "nospan", 1, Err,
                                    /*WithBatchEntry=*/true);
  EXPECT_FALSE(K);
  EXPECT_NE(Err.find("nospan_batch_span_entry"), std::string::npos) << Err;

  net::ArtifactMsg Msg;
  Msg.Key = "0123456789abcdef";
  Msg.FuncName = "nospan";
  Msg.IsaName = "scalar";
  Msg.NumParams = 1;
  Msg.Batched = true;
  Msg.StrategyName = "loop";
  Msg.CSource = C;
  Msg.SoBytes = readFile(CO.KeepSoPath);
  ASSERT_FALSE(Msg.SoBytes.empty());
  sl::Result<sl::Kernel> Shipped =
      sl::detail::KernelFactory::fromMessage(std::move(Msg), 0);
  EXPECT_FALSE(Shipped);
  EXPECT_EQ(Shipped.code(), sl::Code::ProtocolError) << Shipped.message();
  EXPECT_NE(Shipped.message().find("nospan_batch_span_entry"),
            std::string::npos)
      << Shipped.message();
}

TEST(ServiceBatchStrategy, AutoDispatchMatchesIndividualCalls) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  service::KernelService S;
  const int N = 8;
  const int Count = 2 * hostIsa().Nu + 3; // blocks plus remainder
  std::string Src = la::potrfSource(N);
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "p8_adsp";

  service::GetResult Single = S.get(Src, O);
  ASSERT_TRUE(Single) << Single.Error;
  ASSERT_TRUE(Single->isCallable());

  std::vector<double> ARef(Count * N * N), XRef(Count * N * N, 0.0);
  for (int B = 0; B < Count; ++B) {
    Rng Rand(4200 + B);
    auto A = spd(N, Rand);
    std::copy(A.begin(), A.end(), ARef.begin() + B * N * N);
  }
  AlignedBuffer ABatch(Count * N * N), XBatch(Count * N * N);
  std::copy(ARef.begin(), ARef.end(), ABatch.begin());
  for (int B = 0; B < Count; ++B) {
    double *Bufs[2] = {ARef.data() + B * N * N, XRef.data() + B * N * N};
    Single->call(Bufs);
  }
  double *Bufs[2] = {ABatch.data(), XBatch.data()};
  service::GetResult Batched = S.dispatchBatch(Src, O, Count, Bufs);
  ASSERT_TRUE(Batched) << Batched.Error;
  EXPECT_NE(Batched->Strategy, BatchStrategy::Auto);
  EXPECT_LT(maxAbsDiff(XBatch, XRef), 1e-10);

  // A per-request pinned dispatch width routes through the thread pool and
  // must agree bit for bit with the single-threaded dispatch above.
  AlignedBuffer AMt(Count * N * N), XMt(Count * N * N);
  std::copy(ARef.begin(), ARef.end(), AMt.begin());
  double *MtBufs[2] = {AMt.data(), XMt.data()};
  service::RequestOptions MtReq;
  MtReq.Threads = 4;
  service::GetResult Mt = S.dispatchBatch(Src, O, Count, MtBufs, MtReq);
  ASSERT_TRUE(Mt) << Mt.Error;
  EXPECT_EQ(maxAbsDiff(XMt, XBatch), 0.0)
      << "threaded dispatch must be a pure scheduling change";
}

} // namespace
