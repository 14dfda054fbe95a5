//===- tests/jit_test.cpp - generated-C integration tests ------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Compiles the emitted C with the system compiler, loads it, and checks it
// against the dense evaluator -- the path every benchmark uses. Skipped
// when no C compiler is available.
//===----------------------------------------------------------------------===//

#include "expr/Evaluator.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "obs/Metrics.h"
#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "slingen/SLinGen.h"
#include "support/File.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include <stdlib.h>

using namespace slingen;
using namespace slingen::testdata;

namespace {

#define SKIP_WITHOUT_CC()                                                     \
  if (!runtime::haveSystemCompiler())                                         \
  GTEST_SKIP() << "no system C compiler"

/// Generates, JIT-compiles and runs \p Source; compares all outputs against
/// the dense evaluator.
void checkJit(const std::string &Source,
              const std::vector<std::pair<std::string, std::vector<double>>>
                  &Inputs,
              const GenOptions &O, double Tol) {
  std::string Err;
  auto Ref = la::compileLa(Source, Err);
  ASSERT_TRUE(Ref) << Err;
  Env E;
  for (const auto &[Name, Data] : Inputs)
    E.set(Ref->findOperand(Name), Data);
  evalProgram(*Ref, E);

  auto Gen = la::compileLa(Source, Err);
  ASSERT_TRUE(Gen) << Err;
  Generator G(std::move(*Gen), O);
  ASSERT_TRUE(G.isValid()) << G.error();
  auto R = G.best(4);
  ASSERT_TRUE(R);

  std::string C = emitC(*R);
  auto K = runtime::JitKernel::compile(
      C, R->Func.Name, static_cast<int>(R->Func.Params.size()), Err);
  ASSERT_TRUE(K) << Err << "\n--- source ---\n" << C;

  std::vector<std::vector<double>> Storage;
  std::vector<double *> Bufs;
  for (const Operand *P : R->Func.Params) {
    Storage.emplace_back(static_cast<size_t>(P->Rows) * P->Cols, 0.0);
    for (const auto &[Name, Data] : Inputs)
      if (Name == P->Name)
        Storage.back() = Data;
  }
  for (auto &S : Storage)
    Bufs.push_back(S.data());
  K->call(Bufs.data());

  for (const Operand *Op : R->Basic.operands()) {
    if (Op->IsTemp || !Op->isWritable())
      continue;
    std::vector<double> Want = E.get(Ref->findOperand(Op->Name));
    const Operand *Root = Op->root();
    size_t Idx = 0;
    for (; Idx < R->Func.Params.size(); ++Idx)
      if (R->Func.Params[Idx] == Root)
        break;
    ASSERT_LT(Idx, R->Func.Params.size());
    double MaxDiff = 0.0;
    for (size_t I = 0; I < Want.size(); ++I)
      MaxDiff = std::max(MaxDiff, std::fabs(Want[I] - Storage[Idx][I]));
    EXPECT_LT(MaxDiff, Tol) << "output " << Op->Name;
  }
}

GenOptions hostOpts() {
  GenOptions O;
  O.Isa = &hostIsa();
  return O;
}

/// RAII scratch directory; \p Name may contain spaces.
struct ScratchDir {
  explicit ScratchDir(const std::string &Name = "") {
    char Tmpl[] = "/tmp/slingen_jit_XXXXXX";
    Path = mkdtemp(Tmpl);
    Root = Path;
    if (!Name.empty()) {
      Path += "/" + Name;
      std::filesystem::create_directories(Path);
    }
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Root, Ec);
  }
  std::string Path, Root;
};

/// Sets (or unsets, for nullopt) an environment variable for one scope.
struct ScopedEnv {
  ScopedEnv(const char *Name, std::optional<std::string> Value)
      : Name(Name) {
    if (const char *Old = getenv(Name))
      Saved = Old;
    if (Value)
      setenv(Name, Value->c_str(), 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }
  const char *Name;
  std::optional<std::string> Saved;
};

/// Writes a `sh` compiler wrapper running \p Body and returns the
/// SLINGEN_CC value that invokes it.
std::string writeWrapper(const std::string &Dir, const std::string &Name,
                         const std::string &Body) {
  std::string Path = Dir + "/" + Name;
  std::ofstream(Path) << Body;
  return "sh " + Path;
}

/// Fails every precompiled-header build, so compiles run without one.
std::string noPrologueCc(const std::string &Dir) {
  return writeWrapper(Dir, "no_pch.sh",
                      "case \" $* \" in *\" c-header \"*) exit 1 ;; esac\n"
                      "exec cc \"$@\"\n");
}

/// Fails any compile that finds the precompiled header unusable, so a
/// success proves the header was used.
std::string strictPrologueCc(const std::string &Dir) {
  return writeWrapper(Dir, "strict_pch.sh",
                      "exec cc \"$@\" -Winvalid-pch -Werror=invalid-pch\n");
}

int64_t pchBuilds() {
  return obs::Registry::global().counter("runtime.pch-builds").value();
}

TEST(Jit, CompilerProbe) { SUCCEED() << runtime::haveSystemCompiler(); }

TEST(Jit, PotrfCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 11, 16, 24}) {
    Rng R(N);
    checkJit(la::potrfSource(N), {{"A", spd(N, R)}}, hostOpts(), 1e-8 * N);
  }
}

TEST(Jit, TrsylCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 1);
    checkJit(la::trsylSource(N),
             {{"L", lowerTri(N, R)},
              {"U", upperTri(N, R)},
              {"C", general(N, N, R)}},
             hostOpts(), 1e-7 * N);
  }
}

TEST(Jit, TrlyaCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 2);
    checkJit(la::trlyaSource(N),
             {{"L", lowerTri(N, R)}, {"S", symmetric(N, R)}}, hostOpts(),
             1e-7 * N);
  }
}

TEST(Jit, TrtriCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 3);
    checkJit(la::trtriSource(N), {{"L", lowerTri(N, R)}}, hostOpts(),
             1e-7 * N);
  }
}

TEST(Jit, KalmanCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  int N = 8;
  Rng R(99);
  checkJit(la::kalmanSource(N, N),
           {{"F", general(N, N, R)},
            {"Bm", general(N, N, R)},
            {"Q", spd(N, R)},
            {"H", general(N, N, R)},
            {"R", spd(N, R)},
            {"P", spd(N, R)},
            {"u", general(N, 1, R)},
            {"x", general(N, 1, R)},
            {"z", general(N, 1, R)}},
           hostOpts(), 1e-6);
}

TEST(Jit, GprCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  int N = 12;
  Rng R(77);
  checkJit(la::gprSource(N),
           {{"K", spd(N, R)},
            {"X", general(N, N, R)},
            {"x", general(N, 1, R)},
            {"y", general(N, 1, R)}},
           hostOpts(), 1e-6);
}

TEST(Jit, Avx512CompilesAndRunsWhenHosted) {
  SKIP_WITHOUT_CC();
  if (hostIsa().Nu < 8)
    GTEST_SKIP() << "host has no AVX-512";
  GenOptions O;
  O.Isa = &avx512Isa();
  Rng R(6);
  checkJit(la::potrfSource(16), {{"A", spd(16, R)}}, O, 1e-8);
  Rng R2(7);
  checkJit(la::trsylSource(12),
           {{"L", lowerTri(12, R2)},
            {"U", upperTri(12, R2)},
            {"C", general(12, 12, R2)}},
           O, 1e-7);
}

TEST(Jit, ScalarIsaAlsoCompiles) {
  SKIP_WITHOUT_CC();
  GenOptions O;
  O.Isa = &scalarIsa();
  Rng R(5);
  checkJit(la::potrfSource(8), {{"A", spd(8, R)}}, O, 1e-8);
}

TEST(Jit, MeasurementHarnessProducesStableCycles) {
  SKIP_WITHOUT_CC();
  // Measure a trivial known workload and check the harness invariants:
  // positive median, quartiles bracket it.
  volatile double Sink = 0.0;
  auto M = runtime::measureCycles(
      [&] {
        double S = 0.0;
        for (int I = 0; I < 256; ++I)
          S += I * 1.5;
        Sink = S;
      },
      15, 2);
  EXPECT_GT(M.Median, 0.0);
  EXPECT_LE(M.Q1, M.Median);
  EXPECT_LE(M.Median, M.Q3);
}

/// Object bytes of \p R's translation unit compiled with \p Cc into \p Out
/// (persistent flags when \p Keep, process-local ones otherwise).
std::string objectBytes(const std::string &Source, const GenResult &R,
                        const GenOptions &O, bool Batched, bool Keep,
                        const std::string &Cc, const std::string &Out) {
  ScopedEnv Env("SLINGEN_CC", Cc);
  runtime::CompileOptions CO;
  CO.ExtraFlags = runtime::isaCompileFlags(*O.Isa);
  CO.WithBatchEntry = Batched;
  if (Keep)
    CO.KeepSoPath = Out;
  std::string Err;
  auto K = runtime::JitKernel::compile(
      Source, R.Func.Name, static_cast<int>(R.Func.Params.size()), CO, Err);
  EXPECT_TRUE(K) << Err;
  return K ? readFile(K->soPath()) : std::string();
}

TEST(Jit, PrecompiledPrologueLeavesObjectBytesUnchanged) {
  SKIP_WITHOUT_CC();
  ScratchDir Dir;
  const std::string WithPch = strictPrologueCc(Dir.Path);
  const std::string WithoutPch = noPrologueCc(Dir.Path);
  for (const VectorISA *Isa :
       {&scalarIsa(), &sse2Isa(), &avxIsa(), &avx512Isa()}) {
    if (Isa->Nu > hostIsa().Nu)
      continue;
    GenOptions O;
    O.Isa = Isa;
    std::string Err;
    auto P = la::compileLa(la::potrfSource(5), Err);
    ASSERT_TRUE(P) << Err;
    Generator G(std::move(*P), O);
    auto R = G.best(4);
    ASSERT_TRUE(R);
    std::string Single = emitC(*R);
    std::string Fused = emitBatchedVectorFusedC(*R, &O);
    for (bool Keep : {false, true})
      for (bool Batched : {false, true}) {
        const std::string &Src = Batched ? Fused : Single;
        SCOPED_TRACE(std::string(Isa->Name) + (Batched ? " batched" : "") +
                     (Keep ? " persistent" : " local"));
        int64_t Before = pchBuilds();
        std::string A = objectBytes(Src, *R, O, Batched, Keep, WithPch,
                                    Dir.Path + "/a.so");
        std::string B = objectBytes(Src, *R, O, Batched, Keep, WithoutPch,
                                    Dir.Path + "/b.so");
        ASSERT_FALSE(A.empty());
        EXPECT_TRUE(A == B) << "the precompiled prologue changed the object";
        // One build per new compiler + flag set, never one per compile.
        EXPECT_LE(pchBuilds() - Before, 2);
      }
  }
}

TEST(Jit, CompilesWithoutPrologueWhenItCannotBePrecompiled) {
  SKIP_WITHOUT_CC();
  ScratchDir Dir;
  ScopedEnv Env("SLINGEN_CC", noPrologueCc(Dir.Path));
  int64_t Before = pchBuilds();
  Rng R(8);
  checkJit(la::potrfSource(8), {{"A", spd(8, R)}}, hostOpts(), 1e-8 * 8);
  Rng R2(9);
  checkJit(la::trsylSource(4),
           {{"L", lowerTri(4, R2)},
            {"U", upperTri(4, R2)},
            {"C", general(4, 4, R2)}},
           hostOpts(), 1e-7 * 4);
  // The failed build was attempted once for this compiler and flag set,
  // not retried on every compile.
  EXPECT_EQ(pchBuilds() - Before, 1);
}

TEST(Jit, TmpdirWithSpaceCompilesAndRuns) {
  SKIP_WITHOUT_CC();
  ScratchDir Dir("sp ace");
  ScopedEnv Cc("SLINGEN_CC", strictPrologueCc(Dir.Root));
  ScopedEnv Tmp("TMPDIR", Dir.Path);
  Rng R(10);
  checkJit(la::potrfSource(8), {{"A", spd(8, R)}}, hostOpts(), 1e-8 * 8);
  // The precompiled prologue lives under the spaced TMPDIR, and the strict
  // wrapper proved every compile above could use it.
  bool FoundPch = false;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    FoundPch |= std::filesystem::exists(E.path() / "slingen_prologue.h.gch");
  EXPECT_TRUE(FoundPch);
  // A persistent object under a spaced path too (the cache-dir case).
  runtime::CompileOptions CO;
  CO.KeepSoPath = Dir.Path + "/k e p t.so";
  std::string Err;
  auto K = runtime::JitKernel::compile("void one(double *a) { a[0] = 1.0; }",
                                       "one", 1, CO, Err);
  ASSERT_TRUE(K) << Err;
  double X = 0.0;
  double *Bufs[1] = {&X};
  K->call(Bufs);
  EXPECT_EQ(X, 1.0);
  EXPECT_TRUE(std::filesystem::exists(CO.KeepSoPath));
}

TEST(Jit, CompileErrorIsReported) {
  SKIP_WITHOUT_CC();
  std::string Err;
  auto K = runtime::JitKernel::compile("void broken(double *a) { this is "
                                       "not C; }",
                                       "broken", 1, Err);
  EXPECT_FALSE(K);
  EXPECT_FALSE(Err.empty());
}

} // namespace
