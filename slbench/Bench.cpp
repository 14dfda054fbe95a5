//===- slbench/Bench.cpp - shared pieces of the slbench benchmark ---------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "expr/Evaluator.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "runtime/Timing.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include <sys/resource.h>

namespace slbench {

bool Tally::count(bool Ok, const std::string &What) {
  Attempted.fetch_add(1, std::memory_order_relaxed);
  if (!Ok) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    static std::mutex Mu;
    std::lock_guard<std::mutex> L(Mu);
    fprintf(stderr, "slbench: failed: %s\n", What.c_str());
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Kernels
//===----------------------------------------------------------------------===//

std::string KernelSpec::source() const {
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

double KernelSpec::flops() const {
  const double D = N;
  if (Kind == "potrf" || Kind == "trtri" || Kind == "gpr")
    return D * D * D / 3.0;
  if (Kind == "trsyl")
    return 2.0 * D * D * D;
  if (Kind == "trlya")
    return D * D * D;
  if (Kind == "l1a")
    return 8.0 * D * D;
  // Kalman: the nominal cost of the LA program itself (fig15_kf's rule).
  std::string Err;
  auto P = la::compileLa(source(), Err);
  double F = 0.0;
  for (const EqStmt &S : P->stmts())
    F += static_cast<double>(stmtFlops(S));
  return F;
}

//===----------------------------------------------------------------------===//
// Inputs and the oracle
//===----------------------------------------------------------------------===//

Rng seededRng(uint64_t Seed, const std::string &Label) {
  Fnv1a64 H;
  H.num(Seed);
  H.str(Label);
  return Rng(H.digest());
}

Problem::Problem(const KernelSpec &S) : Spec(S) {
  std::string Err;
  auto P = la::compileLa(S.source(), Err);
  if (!P) {
    fprintf(stderr, "slbench: %s does not lower: %s\n", S.label().c_str(),
            Err.c_str());
    std::exit(1);
  }
  Prog = std::move(*P);
  // The generator's signature rule (compileBasicProgram): root operands of
  // the declarations, in declaration order.
  for (const Operand *Op : Prog.operands()) {
    const Operand *Root = Op->root();
    if (!Root->IsTemp &&
        std::find(Params.begin(), Params.end(), Root) == Params.end())
      Params.push_back(Root);
  }
  Check.assign(Params.size(), false);
  Restore.assign(Params.size(), false);
  for (const Operand *Op : Prog.operands()) {
    if (Op->IsTemp || !Op->isWritable())
      continue;
    int I = static_cast<int>(
        std::find(Params.begin(), Params.end(), Op->root()) - Params.begin());
    Check[I] = true;
    Restore[I] = Op->root()->IO != IOKind::Out;
  }
}

size_t Problem::size(int I) const {
  return static_cast<size_t>(Params[I]->Rows) * Params[I]->Cols;
}

int Problem::param(const std::string &Name) const {
  for (size_t I = 0; I < Params.size(); ++I)
    if (Params[I]->Name == Name)
      return static_cast<int>(I);
  return -1;
}

namespace {

/// Structure-respecting values: SPD for positive-definite operands,
/// diagonally dominant triangles, symmetric where declared, uniform
/// otherwise -- so every solve in the oracle and the kernel is well posed.
std::vector<double> fill(const Operand &Op, Rng &R) {
  const int Rows = Op.Rows, Cols = Op.Cols;
  std::vector<double> V(static_cast<size_t>(Rows) * Cols);
  for (double &X : V)
    X = R.uniform(-1.0, 1.0);
  if (Rows != Cols || Rows == 1)
    return V;
  const int N = Rows;
  if (Op.PosDef) {
    std::vector<double> A(V.size());
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < N; ++J) {
        double Acc = I == J ? N : 0.0;
        for (int K = 0; K < N; ++K)
          Acc += V[K * N + I] * V[K * N + J];
        A[I * N + J] = Acc;
      }
    return A;
  }
  if (isTriangular(Op.Structure)) {
    bool Lower = Op.Structure == StructureKind::LowerTriangular;
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < N; ++J)
        if (I == J)
          V[I * N + J] = R.uniform(1.0, 2.0) + 2.0;
        else if (Lower ? J > I : J < I)
          V[I * N + J] = 0.0;
    return V;
  }
  if (isSymmetric(Op.Structure))
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < I; ++J)
        V[I * N + J] = V[J * N + I];
  return V;
}

} // namespace

Instance Problem::instance(Rng &R) const {
  Instance I;
  Env E;
  for (const Operand *P : Params) {
    I.In.push_back(fill(*P, R));
    E.set(P, I.In.back());
  }
  evalProgram(Prog, E);
  for (const Operand *P : Params)
    I.Want.push_back(E.get(P));
  return I;
}

double Problem::error(const Instance &I,
                      const std::vector<const double *> &Got) const {
  double Diff = 0.0, Scale = 1.0;
  for (size_t P = 0; P < Params.size(); ++P) {
    if (!Check[P])
      continue;
    for (size_t K = 0; K < I.Want[P].size(); ++K) {
      Scale = std::max(Scale, std::fabs(I.Want[P][K]));
      // NaN compares false everywhere; count it as an infinite error.
      double D = std::fabs(I.Want[P][K] - Got[P][K]);
      Diff = std::isnan(D) ? INFINITY : std::max(Diff, D);
    }
  }
  return Diff / Scale;
}

Buffers::Buffers(const Problem &P, int Count) : P(&P), Count(Count) {
  for (int I = 0; I < P.numParams(); ++I)
    Ptr.push_back(Mem.emplace_back(P.size(I) * Count).data());
}

void Buffers::load(const Instance &I, int Slot, bool All) {
  for (int K = 0; K < P->numParams(); ++K)
    if (All || P->restored(K))
      std::memcpy(Ptr[K] + Slot * P->size(K), I.In[K].data(),
                  P->size(K) * sizeof(double));
}

void Buffers::restore(const Instance &I) {
  for (int K = 0; K < P->numParams(); ++K)
    if (P->restored(K))
      for (int Slot = 0; Slot < Count; ++Slot)
        std::memcpy(Ptr[K] + Slot * P->size(K), I.In[K].data(),
                    P->size(K) * sizeof(double));
}

double Buffers::error(const Instance &I, int Slot) const {
  std::vector<const double *> Got;
  for (int K = 0; K < P->numParams(); ++K)
    Got.push_back(Ptr[K] + Slot * P->size(K));
  return P->error(I, Got);
}

//===----------------------------------------------------------------------===//
// Requests and sessions
//===----------------------------------------------------------------------===//

sl::RequestBuilder request(const KernelSpec &S, const std::string &Name) {
  sl::RequestBuilder B;
  B.source(S.source()).name(Name).isa(hostIsa().Name);
  return B;
}

int workers() {
  unsigned N = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(N, 1u, 4u));
}

namespace {

service::ServiceConfig daemonConfig(const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  service::ServiceConfig SC;
  SC.CacheDir = Dir + "/cache";
  return SC;
}

net::ServerConfig socketConfig(const std::string &Dir) {
  net::ServerConfig NC;
  NC.UnixPath = Dir + "/s.sock";
  return NC;
}

} // namespace

Daemon::Daemon(const std::string &Dir)
    : Svc(daemonConfig(Dir)), Srv(Svc, socketConfig(Dir)) {
  std::string Err;
  if (!Srv.start(Err)) {
    fprintf(stderr, "slbench: daemon in %s: %s\n", Dir.c_str(), Err.c_str());
    std::exit(1);
  }
}

std::vector<sl::Result<sl::Kernel>>
fetchAll(const std::string &Address, const std::vector<sl::Request> &Reqs,
         int Threads) {
  std::vector<sl::Result<sl::Kernel>> Out(
      Reqs.size(), sl::Status::failure(sl::Code::InternalError, "not run"));
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    auto S = sl::Session::open(Address);
    for (size_t I; (I = Next.fetch_add(1)) < Reqs.size();)
      Out[I] = S ? S->get(Reqs[I]) : sl::Result<sl::Kernel>(S.status());
  };
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

void Series::calibrate(double MinWindowNs) {
  for (Iters = 1;; Iters *= 2) {
    auto T0 = Clock::now();
    for (long I = 0; I < Iters; ++I)
      Fn();
    if (std::chrono::duration<double, std::nano>(Clock::now() - T0).count() >=
        MinWindowNs)
      return;
  }
}

void Series::window() {
  uint64_t C0 = runtime::readCycles();
  auto T0 = Clock::now();
  for (long I = 0; I < Iters; ++I)
    Fn();
  double Ns = std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
  uint64_t C1 = runtime::readCycles();
  NsPerCall.push_back(Ns / Iters);
  CyclesPerCall.push_back(static_cast<double>(C1 - C0) / Iters);
  Calls += Iters;
  TotalNs += Ns;
}

double Series::p50() const { return percentile(NsPerCall, 50); }
double Series::p90() const { return percentile(NsPerCall, 90); }

void measureRounds(std::vector<Series *> &All, double Seconds, int MinRounds,
                   Rng &R) {
  // A fresh seeded order every round. A fixed order gives each series the
  // same predecessor all run long, and that alone moved whole `batch` runs
  // by up to 25% from seed to seed.
  auto T0 = Clock::now();
  for (int Round = 0; Round < MinRounds || secondsSince(T0) < Seconds;
       ++Round) {
    for (size_t I = All.size(); I > 1; --I)
      std::swap(All[I - 1], All[R.next() % I]);
    for (Series *S : All)
      S->window();
  }
}

//===----------------------------------------------------------------------===//
// Reference timings
//===----------------------------------------------------------------------===//

Series metronome() {
  Series S;
  S.Fn = [] {
    static double A[256], B[256], C[256];
    static const bool Init = [] {
      for (int I = 0; I < 256; ++I) {
        A[I] = 1.0 + (I % 7) * 0.01;
        B[I] = 0.5 - (I % 5) * 0.01;
      }
      return true;
    }();
    (void)Init;
    for (int I = 0; I < 16; ++I)
      for (int J = 0; J < 16; ++J) {
        double Acc = 0.0;
        for (int K = 0; K < 16; ++K)
          Acc += A[I * 16 + K] * B[K * 16 + J];
        C[I * 16 + J] = Acc;
      }
    // Keep the product observable so the loop is not optimized away.
    asm volatile("" : : "r"(C) : "memory");
  };
  return S;
}

void reportTimes(WorkloadResult &W, double OpUsP50, double OpUsP90,
                 double OpsPerS, double RefUs) {
  W.EndToEnd["op_ref_p50"] = OpUsP50 / RefUs;
  W.Notes.push_back(formatf("op_us_p50 %.6g us", OpUsP50));
  W.Notes.push_back(formatf("op_us_p90 %.6g us", OpUsP90));
  W.Notes.push_back(formatf("ops_per_s %.6g 1/s", OpsPerS));
  W.Notes.push_back(formatf("ref_us %.6g us", RefUs));
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace slbench
