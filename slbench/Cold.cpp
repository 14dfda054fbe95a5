//===- slbench/Cold.cpp - the `cold` workload -----------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The full miss path: one closed-loop client on a fresh `local:<dir>`
// session issues never-seen batched requests with measured tuning and the
// default `auto` strategy, back to back. The tuner's top-K compiles and
// strategy probes plus the final compile -- repeated `cc` runs -- do most
// of the work; this is the workload a change to the cold path claims on.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "isa/ISA.h"
#include "support/Format.h"

#include <fstream>
#include <memory>

#include <spawn.h>
#include <sys/wait.h>

extern char **environ;

namespace slbench {

namespace {

/// The miss path's reference: the system C compiler building a fixed small
/// shared object, started by the benchmark itself -- the work every miss
/// repeats several times, minus everything the program decides.
class BareCompile {
public:
  explicit BareCompile(const std::string &Dir)
      : Src(Dir + "/ref.c"), Out(Dir + "/ref.so") {
    std::ofstream(Src) << R"c(
void ref(double *a, const double *b, const double *c) {
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      double s = 0.0;
      for (int k = 0; k < 8; ++k)
        s += b[i * 8 + k] * c[k * 8 + j];
      a[i * 8 + j] = s;
    }
}
)c";
  }

  /// Microseconds for one compile, or a negative value when it failed.
  double runUs() {
    const char *Argv[] = {"cc",    "-O2",       "-shared", "-fPIC", "-o",
                          Out.c_str(), Src.c_str(), nullptr};
    auto T0 = Clock::now();
    pid_t Pid;
    int Status = 0;
    if (posix_spawnp(&Pid, "cc", nullptr, nullptr,
                     const_cast<char *const *>(Argv), environ) != 0 ||
        waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0)
      return -1.0;
    return secondsSince(T0) * 1e6;
  }

private:
  std::string Src, Out;
};

} // namespace

WorkloadResult runCold(const Options &O, Tally &T) {
  WorkloadResult W;
  W.Miss = MissKind::BatchedMeasured;
  // A fixed set of request classes; the seed picks their order in every
  // round, the inputs, and the names that make every request a new key.
  // (Drawing sizes by seed would move the per-run median with the draw.)
  W.Kernels = O.Smoke ? std::vector<KernelSpec>{{"potrf", 4}}
                      : std::vector<KernelSpec>{{"potrf", 8}, {"trsyl", 6},
                                                {"trlya", 6}, {"trtri", 8},
                                                {"kf", 4},    {"gpr", 6},
                                                {"l1a", 6}};
  // Two full vector blocks plus a ragged tail: both batch paths run.
  const int Count = 2 * hostIsa().Nu + 3;
  struct Class {
    Problem P;
    std::vector<Instance> I;
  };
  std::vector<std::unique_ptr<Class>> Classes;
  for (const KernelSpec &S : W.Kernels) {
    auto C = std::make_unique<Class>(Class{Problem(S), {}});
    Rng R = seededRng(O.Seed, "cold/" + S.label());
    for (int B = 0; B < Count; ++B)
      C->I.push_back(C->P.instance(R));
    Classes.push_back(std::move(C));
  }

  // Set-up: open a fresh session and serve one small kernel (which also
  // warms the compiler's files in the page cache), several times.
  std::vector<double> SetupS;
  auto Warm = request({"potrf", 4}, "cold_warm").measure(false).build();
  for (int Rep = 0; Rep < O.setupReps(); ++Rep) {
    auto T0 = Clock::now();
    auto S = sl::Session::open(formatf("local:%s/cold-setup%d",
                                       O.WorkDir.c_str(), Rep));
    auto K = S ? S->get(*Warm) : sl::Result<sl::Kernel>(S.status());
    SetupS.push_back(secondsSince(T0));
    T.count(K.ok(), "cold warm-up: " + K.status().str());
  }

  auto S = sl::Session::open("local:" + O.WorkDir + "/cold");
  if (!T.count(S.ok(), "cold session: " + S.status().str()))
    return W;
  Rng Order = seededRng(O.Seed, "cold/order");
  // The reference: three bare compiles before every miss.
  BareCompile Ref(O.WorkDir);
  std::vector<double> RefUs;
  std::vector<size_t> Round;
  std::vector<double> LatUs;
  std::map<std::string, std::vector<double>> ByClass;
  auto T0 = Clock::now();
  // At least one full round, so every class is in every run's sample.
  const int MinRequests = static_cast<int>(Classes.size());
  for (int I = 0; I < MinRequests || secondsSince(T0) < O.Seconds; ++I) {
    if (Round.empty()) {
      for (size_t C = 0; C < Classes.size(); ++C)
        Round.push_back(C);
      for (size_t K = Round.size(); K > 1; --K)
        std::swap(Round[K - 1], Round[Order.next() % K]);
    }
    Class &C = *Classes[Round.back()];
    Round.pop_back();
    const std::string Label = C.P.spec().label();
    auto Req = request(C.P.spec(),
                       formatf("cold_s%llu_%d_%s",
                               static_cast<unsigned long long>(O.Seed), I,
                               Label.c_str()))
                   .batched()
                   .measure(true)
                   .build();
    for (int Rep = 0; Rep < 3; ++Rep) {
      double Us = Ref.runUs();
      if (T.count(Us >= 0, "reference compile"))
        RefUs.push_back(Us);
    }
    auto T1 = Clock::now();
    auto K = S->get(*Req);
    double Us = secondsSince(T1) * 1e6;
    if (!T.count(K.ok(), "cold get " + Label + ": " + K.status().str()))
      continue;
    LatUs.push_back(Us);
    ByClass[Label].push_back(Us);

    Buffers B(C.P, Count);
    for (int Slot = 0; Slot < Count; ++Slot)
      B.load(C.I[Slot], Slot);
    sl::Status St = K->callBatch(Count, B.ptr());
    double Err = 0.0;
    for (int Slot = 0; Slot < Count; ++Slot)
      Err = std::max(Err, B.error(C.I[Slot], Slot));
    T.count(St.ok() && Err <= Tolerance,
            formatf("cold %s (%s): %s, error %g", Label.c_str(),
                    K->strategy().c_str(), St.str().c_str(), Err));
  }

  // Per-class medians, combined by geomean: the typical miss of an even
  // class mix, whatever mix the run's seconds happened to draw.
  std::vector<double> ClassMedian;
  for (auto &[Label, V] : ByClass) {
    ClassMedian.push_back(median(V));
    W.Notes.push_back(formatf("cold.%s.miss_ms %.1f ms", Label.c_str(),
                              ClassMedian.back() / 1e3));
  }
  W.EndToEnd["setup_s"] = median(SetupS);
  reportTimes(W, geomean(ClassMedian), percentile(LatUs, 90),
              LatUs.size() / secondsSince(T0), median(RefUs));
  W.Notes.push_back(formatf("cold.misses %zu count", LatUs.size()));
  return W;
}

} // namespace slbench
