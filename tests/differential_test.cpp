//===- tests/differential_test.cpp - every ISA against both oracles -------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's 18 benchmark kernels -- potrf, trsyl, trlya and trtri at
// n = 4, 12, 20; kf, gpr and l1a at n = 4, 12 -- served through
// sl::Session("local:") with measure(false) on every ISA this host runs.
// Each output must match the dense evaluator (expr::evalProgram), and the
// compiled kernel must agree bit for bit with the C-IR interpreter running
// the very IR that was compiled: FMA placement, reduction order, and lane
// moves of every register width are part of the contract.
//
//===----------------------------------------------------------------------===//

#include "slingen/client.h"

#include "cir/Interp.h"
#include "expr/Evaluator.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "runtime/Jit.h"
#include "service/KernelService.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>

using namespace slingen;
using namespace slingen::testdata;
namespace sl = slingen::client;

namespace {

struct KernelCase {
  std::string Kind;
  int N;

  std::string label() const { return Kind + std::to_string(N); }
  std::string source() const {
    if (Kind == "potrf")
      return la::potrfSource(N);
    if (Kind == "trsyl")
      return la::trsylSource(N);
    if (Kind == "trlya")
      return la::trlyaSource(N);
    if (Kind == "trtri")
      return la::trtriSource(N);
    if (Kind == "kf")
      return la::kalmanSource(N, N);
    if (Kind == "gpr")
      return la::gprSource(N);
    return la::l1aSource(N);
  }
};

std::vector<KernelCase> paperKernels() {
  std::vector<KernelCase> Out;
  for (int N : {4, 12, 20})
    for (const char *Kind : {"potrf", "trsyl", "trlya", "trtri"})
      Out.push_back({Kind, N});
  for (int N : {4, 12})
    for (const char *Kind : {"kf", "gpr", "l1a"})
      Out.push_back({Kind, N});
  return Out;
}

/// Well-conditioned data shaped by the operand's declared structure.
std::vector<double> fill(const Operand &Op, Rng &R) {
  if (Op.Rows != Op.Cols || Op.Rows == 1)
    return general(Op.Rows, Op.Cols, R);
  if (Op.PosDef)
    return spd(Op.Rows, R);
  if (Op.Structure == StructureKind::LowerTriangular)
    return lowerTri(Op.Rows, R);
  if (Op.Structure == StructureKind::UpperTriangular)
    return upperTri(Op.Rows, R);
  if (isSymmetric(Op.Structure))
    return symmetric(Op.Rows, R);
  return general(Op.Rows, Op.Cols, R);
}

class PaperKernels : public ::testing::TestWithParam<const VectorISA *> {};

TEST_P(PaperKernels, MatchEvaluatorAndInterpreterBitExactly) {
  const VectorISA &Isa = *GetParam();
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  if (Isa.Nu > hostIsa().Nu)
    GTEST_SKIP() << Isa.Name << " does not run on this host";

  const std::vector<KernelCase> Cases = paperKernels();
  std::vector<sl::Request> Reqs;
  for (const KernelCase &C : Cases) {
    auto Req = sl::RequestBuilder()
                   .source(C.source())
                   .name("d_" + C.label())
                   .isa(Isa.Name)
                   .measure(false)
                   .build();
    ASSERT_TRUE(Req) << Req.status().str();
    Reqs.push_back(*Req);
  }
  // Generation and `cc` dominate: fetch on a few threads.
  auto S = sl::Session::open("local:");
  ASSERT_TRUE(S) << S.status().str();
  std::vector<sl::Result<sl::Kernel>> Got(
      Reqs.size(), sl::Status::failure(sl::Code::InternalError, "not run"));
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Reqs.size();)
        Got[I] = S->get(Reqs[I]);
    });
  for (std::thread &T : Pool)
    T.join();

  for (size_t I = 0; I < Cases.size(); ++I) {
    const std::string Label = std::string(Isa.Name) + "/" + Cases[I].label();
    SCOPED_TRACE(Label);
    ASSERT_TRUE(Got[I]) << Got[I].status().str();
    const sl::Kernel &K = *Got[I];

    // The IR the service compiled: same options, same static choice.
    std::string Err;
    auto Prog = la::compileLa(Cases[I].source(), Err);
    ASSERT_TRUE(Prog) << Err;
    GenOptions O;
    O.Isa = &Isa;
    O.FuncName = "d_" + Cases[I].label();
    Generator G(Prog->clone(), O);
    ASSERT_TRUE(G.isValid()) << G.error();
    auto R = G.best(service::ServiceConfig().MaxVariants);
    ASSERT_TRUE(R);
    ASSERT_EQ(emitC(*R), K.cSource()) << "regenerated IR differs";

    // Seeded inputs, and the evaluator's answer.
    Rng Rand(I + 1);
    Env E;
    std::vector<std::vector<double>> Jit, Itp;
    for (const Operand *P : R->Func.Params) {
      Jit.push_back(fill(*P, Rand));
      E.set(Prog->findOperand(P->Name), Jit.back());
    }
    evalProgram(*Prog, E);
    Itp = Jit;

    std::vector<double *> Bufs;
    for (auto &B : Jit)
      Bufs.push_back(B.data());
    ASSERT_TRUE(K.call(Bufs.data())) << "call failed";
    std::map<const Operand *, double *> IBufs;
    for (size_t P = 0; P < Itp.size(); ++P)
      IBufs[R->Func.Params[P]] = Itp[P].data();
    cir::interpret(R->Func, IBufs);

    for (size_t P = 0; P < Jit.size(); ++P) {
      const Operand *Op = R->Func.Params[P];
      EXPECT_EQ(std::memcmp(Jit[P].data(), Itp[P].data(),
                            Jit[P].size() * sizeof(double)),
                0)
          << "compiled and interpreted " << Op->Name << " differ by "
          << maxAbsDiff(Jit[P], Itp[P]);
      if (!R->Func.ParamWritable[P])
        continue;
      std::vector<double> Want = E.get(Prog->findOperand(Op->Name));
      double Scale = 1.0;
      for (double W : Want)
        Scale = std::max(Scale, std::fabs(W));
      EXPECT_LT(maxAbsDiff(Want, Jit[P]) / Scale, 1e-9)
          << "output " << Op->Name << " vs the evaluator";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, PaperKernels,
    ::testing::Values(&scalarIsa(), &sse2Isa(), &avxIsa(), &avx512Isa()),
    [](const ::testing::TestParamInfo<const VectorISA *> &Info) {
      return std::string(Info.param->Name);
    });

} // namespace
