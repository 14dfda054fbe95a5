//===- tests/slc_test.cpp - command-line driver tests ----------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Exercises the slc binary end to end: LA file in, C out, options,
// diagnostics. The binary path is injected by CMake.
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace {

#ifndef SLINGEN_SLC_PATH
#define SLINGEN_SLC_PATH "slc"
#endif

struct RunResult {
  int Status;
  std::string Out;
};

RunResult runSlc(const std::string &Args) {
  std::string OutFile = "/tmp/slc_test_" + std::to_string(getpid()) + ".out";
  std::string Cmd = std::string(SLINGEN_SLC_PATH) + " " + Args + " > " +
                    OutFile + " 2>&1";
  int Status = system(Cmd.c_str());
  std::ifstream In(OutFile);
  std::stringstream SS;
  SS << In.rdbuf();
  unlink(OutFile.c_str());
  return {Status, SS.str()};
}

std::string writeLa(const std::string &Text) {
  std::string Path = "/tmp/slc_test_" + std::to_string(getpid()) + ".la";
  std::ofstream Out(Path);
  Out << Text;
  return Path;
}

const char *PotrfLa = "Mat A(8, 8) <In, UpSym, PD>;\n"
                      "Mat X(8, 8) <Out, UpTri, NS>;\n"
                      "X' * X = A;\n";

TEST(Slc, EmitsCompilableLookingC) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc(Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("#include <immintrin.h>"), std::string::npos);
  EXPECT_NE(R.Out.find("void slc_test_"), std::string::npos); // from file name
  EXPECT_NE(R.Out.find("_mm256_"), std::string::npos);
}

TEST(Slc, ScalarIsaHasNoIntrinsics) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc("-isa scalar -name potrf8 " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("void potrf8("), std::string::npos);
  EXPECT_EQ(R.Out.find("_mm256_"), std::string::npos);
  EXPECT_EQ(R.Out.find("immintrin"), std::string::npos);
}

TEST(Slc, PrintVariants) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc("-print-variants " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("1 HLAC(s)"), std::string::npos);
  EXPECT_NE(R.Out.find("3 variant(s)"), std::string::npos);
}

TEST(Slc, ExplicitVariantSelection) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc("-variant 2 -name v2kernel " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("void v2kernel("), std::string::npos);
}

TEST(Slc, BatchFlagEmitsBatchEntry) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc("-batch -name potrfb " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("void potrfb("), std::string::npos);
  EXPECT_NE(R.Out.find("void potrfb_batch(int count"), std::string::npos);
}

TEST(Slc, BatchStrategiesEmitTheirEntries) {
  std::string Path = writeLa(PotrfLa);
  RunResult L = runSlc("-batch -batch-strategy loop -name potrfv " + Path);
  EXPECT_EQ(L.Status, 0) << L.Out;
  EXPECT_NE(L.Out.find("void potrfv_batch(int count"), std::string::npos);
  EXPECT_NE(L.Out.find("potrfv_batch_span(int start"), std::string::npos);
  EXPECT_EQ(L.Out.find("potrfv_fusedblk"), std::string::npos);

  // The fused strategy is transpose-free: the block kernel reads the
  // batch ABI directly, and the span entry for threaded dispatch is there.
  RunResult F =
      runSlc("-batch -batch-strategy fused -name potrfv " + Path);
  EXPECT_EQ(F.Status, 0) << F.Out;
  EXPECT_NE(F.Out.find("void potrfv_batch(int count"), std::string::npos);
  EXPECT_NE(F.Out.find("potrfv_fusedblk"), std::string::npos);
  EXPECT_NE(F.Out.find("potrfv_batch_span(int start"), std::string::npos);

  // Unknown names -- "vec" included, a strategy slc no longer emits -- are
  // refused with the list of the names it takes.
  for (const char *Name : {"bogus", "vec"}) {
    RunResult Bad = runSlc(std::string("-batch -batch-strategy ") + Name +
                           " -name potrfv " + Path);
    EXPECT_NE(Bad.Status, 0) << Name;
    EXPECT_NE(Bad.Out.find("loop, fused, or auto"), std::string::npos)
        << Bad.Out;
  }
  unlink(Path.c_str());
}

TEST(Slc, CacheDirServesIdenticalOutputAcrossRuns) {
  std::string Path = writeLa(PotrfLa);
  std::string Dir = "/tmp/slc_test_cache_" + std::to_string(getpid());
  std::string Args = "-cache-dir " + Dir + " -name potrfc " + Path;
  RunResult First = runSlc(Args);
  RunResult Second = runSlc(Args); // fresh process: served from disk
  unlink(Path.c_str());
  EXPECT_EQ(First.Status, 0) << First.Out;
  EXPECT_EQ(Second.Status, 0) << Second.Out;
  EXPECT_EQ(First.Out, Second.Out);
  EXPECT_NE(First.Out.find("cache key:"), std::string::npos);
  system(("rm -rf " + Dir).c_str());
}

TEST(Slc, MeasureFlagIsAcceptedAndAnnotates) {
  std::string Path = writeLa(PotrfLa);
  RunResult R = runSlc("-measure -isa scalar -name potrfm " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("void potrfm("), std::string::npos);
}

// slc runs on the sl::Session facade now, so -so-out works locally too
// (the local backend JIT-compiles and hands the object bytes through the
// same Kernel accessor a daemon-served request uses).
TEST(Slc, SoOutWritesLocalJitObject) {
  if (!slingen::runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  std::string Path = writeLa(PotrfLa);
  std::string So = "/tmp/slc_test_" + std::to_string(getpid()) + ".so";
  RunResult R = runSlc("-so-out " + So + " -name potrfso " + Path);
  unlink(Path.c_str());
  EXPECT_EQ(R.Status, 0) << R.Out;
  std::ifstream In(So, std::ios::binary);
  ASSERT_TRUE(In) << "slc must have written the shared object";
  char Magic[4] = {};
  In.read(Magic, 4);
  EXPECT_EQ(std::string(Magic, 4), std::string("\x7f"
                                               "ELF"));
  unlink(So.c_str());
}

TEST(Slc, SyntaxErrorIsDiagnosed) {
  std::string Path = writeLa("Mat A(8, 8) <In;\n");
  RunResult R = runSlc(Path);
  unlink(Path.c_str());
  EXPECT_NE(R.Status, 0);
  EXPECT_FALSE(R.Out.empty());
}

TEST(Slc, MissingFileIsDiagnosed) {
  RunResult R = runSlc("/nonexistent/input.la");
  EXPECT_NE(R.Status, 0);
  EXPECT_NE(R.Out.find("cannot open"), std::string::npos);
}

} // namespace
