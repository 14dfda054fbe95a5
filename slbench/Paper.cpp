//===- slbench/Paper.cpp - the `paper` workload ---------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's claim (Figs. 14-15): generated kernels against library,
// recursive, template, naive and Cl1ck code. Kernels come from a `local:`
// session with measure(false), so each is the static cost model's best
// variant and the run is deterministic up to the machine. Only Kernel::call
// is timed: C-IR and LGen code quality does all the work here, the miss
// path none. Every kernel and every baseline is timed in 2 ms windows,
// round-robin until the run's seconds are spent.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/Apps.h"
#include "baselines/Cl1ckBlas.h"
#include "baselines/Naive.h"
#include "baselines/Recursive.h"
#include "baselines/RefBlas.h"
#include "support/Format.h"

#include <cstring>
#include <memory>

namespace slbench {

namespace {

using Vec = std::shared_ptr<std::vector<double>>;

Vec vec(std::vector<double> V) {
  return std::make_shared<std::vector<double>>(std::move(V));
}

void copy(const Vec &Dst, const Vec &Src) {
  std::memcpy(Dst->data(), Src->data(), Src->size() * sizeof(double));
}

/// The in-repo comparison set for one kernel on the instance's inputs,
/// called as the figure benchmarks call them. Operands a routine updates
/// in place are restored before every call, as for the generated kernel.
std::vector<Series> baselines(const Problem &P, const Instance &I) {
  const int N = P.spec().N;
  const std::string &Kind = P.spec().Kind;
  auto In = [&](const char *Name) { return vec(I.In[P.param(Name)]); };
  std::vector<Series> Out;
  auto Add = [&](std::function<void()> Fn) {
    Series S;
    S.Fn = std::move(Fn);
    Out.push_back(std::move(S));
  };

  if (Kind == "kf") {
    Vec F = In("F"), B = In("Bm"), Q = In("Q"), H = In("H"), R = In("R"),
        U = In("u"), Z = In("z"), X0 = In("x"), P0 = In("P");
    Vec X = vec(*X0), Pm = vec(*P0), S = vec(std::vector<double>(8 * N * N + 8 * N));
    auto Reset = [=] { copy(X, X0), copy(Pm, P0); };
    Add([=] {
      Reset();
      apps::kalmanRefblas(N, N, F->data(), B->data(), Q->data(), H->data(),
                          R->data(), U->data(), Z->data(), X->data(),
                          Pm->data(), S->data());
    });
    if (apps::kalmanSmallet(N, N, F->data(), B->data(), Q->data(), H->data(),
                            R->data(), U->data(), Z->data(), X->data(),
                            Pm->data()))
      Add([=] {
        Reset();
        apps::kalmanSmallet(N, N, F->data(), B->data(), Q->data(), H->data(),
                            R->data(), U->data(), Z->data(), X->data(),
                            Pm->data());
      });
    Add([=] {
      Reset();
      naive::kalman(N, N, F->data(), B->data(), Q->data(), H->data(),
                    R->data(), U->data(), Z->data(), X->data(), Pm->data(),
                    S->data());
    });
    return Out;
  }
  if (Kind == "gpr") {
    Vec K = In("K"), X = In("X"), Xv = In("x"), Y = In("y"),
        S = vec(std::vector<double>(N * N + 8 * N));
    auto Phi = std::make_shared<double[]>(3);
    Add([=] {
      apps::gprRefblas(N, K->data(), X->data(), Xv->data(), Y->data(), &Phi[0],
                       &Phi[1], &Phi[2], S->data());
    });
    if (apps::gprSmallet(N, K->data(), X->data(), Xv->data(), Y->data(),
                         &Phi[0], &Phi[1], &Phi[2]))
      Add([=] {
        apps::gprSmallet(N, K->data(), X->data(), Xv->data(), Y->data(),
                         &Phi[0], &Phi[1], &Phi[2]);
      });
    Add([=] {
      naive::gpr(N, K->data(), X->data(), Xv->data(), Y->data(), &Phi[0],
                 &Phi[1], &Phi[2], S->data());
    });
    return Out;
  }
  if (Kind == "l1a") {
    Vec W = In("W"), A = In("A"), X0 = In("x0"), Y = In("y");
    Vec V10 = In("v1"), Z10 = In("z1"), V20 = In("v2"), Z20 = In("z2");
    Vec V1 = vec(*V10), Z1 = vec(*Z10), V2 = vec(*V20), Z2 = vec(*Z20),
        S = vec(std::vector<double>(8 * N));
    double Alpha = (*In("alpha"))[0], Beta = (*In("beta"))[0],
           Tau = (*In("tau"))[0];
    auto Reset = [=] { copy(V1, V10), copy(Z1, Z10), copy(V2, V20), copy(Z2, Z20); };
    Add([=] {
      Reset();
      apps::l1aRefblas(N, W->data(), A->data(), X0->data(), Y->data(), Alpha,
                       Beta, Tau, V1->data(), Z1->data(), V2->data(),
                       Z2->data(), S->data());
    });
    if (apps::l1aSmallet(N, W->data(), A->data(), X0->data(), Y->data(), Alpha,
                         Beta, Tau, V1->data(), Z1->data(), V2->data(),
                         Z2->data()))
      Add([=] {
        Reset();
        apps::l1aSmallet(N, W->data(), A->data(), X0->data(), Y->data(),
                         Alpha, Beta, Tau, V1->data(), Z1->data(), V2->data(),
                         Z2->data());
      });
    Add([=] {
      Reset();
      naive::l1a(N, W->data(), A->data(), X0->data(), Y->data(), Alpha, Beta,
                 Tau, V1->data(), Z1->data(), V2->data(), Z2->data(),
                 S->data());
    });
    return Out;
  }

  // The Table 3 HLACs: every routine works in place on a copy of the one
  // operand it overwrites. Cl1ck runs at nb = 4, the paper's nu.
  const char *Target = Kind == "potrf"   ? "A"
                       : Kind == "trtri" ? "L"
                       : Kind == "trsyl" ? "C"
                                         : "S";
  Vec Src = In(Target), W = vec(*Src);
  Vec L = Kind == "potrf" ? nullptr : In("L");
  Vec U = Kind == "trsyl" ? In("U") : nullptr;
  auto Run = [=](auto Fn) {
    return [=] {
      copy(W, Src);
      Fn(W->data());
    };
  };
  if (Kind == "potrf") {
    Add(Run([=](double *A) { refblas::potrfUpper(N, A, N); }));
    Add(Run([=](double *A) { recursive::potrfUpper(N, A, N); }));
    if (apps::potrfSmallet(N, W->data()))
      Add(Run([=](double *A) { apps::potrfSmallet(N, A); }));
    Add(Run([=](double *A) { naive::potrfUpper(N, A); }));
    Add(Run([=](double *A) { cl1ck::potrfUpper(N, 4, A, N); }));
  } else if (Kind == "trtri") {
    Add(Run([=](double *A) { refblas::trtriLower(N, A, N); }));
    Add(Run([=](double *A) { recursive::trtriLower(N, A, N); }));
    if (apps::trtriSmallet(N, W->data()))
      Add(Run([=](double *A) { apps::trtriSmallet(N, A); }));
    Add(Run([=](double *A) { naive::trtriLower(N, A); }));
    Add(Run([=](double *A) { cl1ck::trtriLower(N, 4, A, N); }));
  } else if (Kind == "trsyl") {
    Add(Run([=](double *C) {
          refblas::trsylLowerUpper(N, N, L->data(), N, U->data(), N, C, N);
        }));
    Add(Run([=](double *C) {
          recursive::trsylLowerUpper(N, N, L->data(), N, U->data(), N, C, N);
        }));
    if (apps::trsylSmallet(N, L->data(), U->data(), W->data()))
      Add(Run([=](double *C) {
            apps::trsylSmallet(N, L->data(), U->data(), C);
          }));
    Add(Run([=](double *C) {
          naive::trsylLowerUpper(N, L->data(), U->data(), C);
        }));
    Add(Run([=](double *C) {
          cl1ck::trsylLowerUpper(N, N, 4, L->data(), N, U->data(), N, C, N);
        }));
  } else {
    Add(Run([=](double *S) {
          refblas::trlyaLower(N, L->data(), N, S, N);
        }));
    Add(Run([=](double *S) {
          recursive::trlyaLower(N, L->data(), N, S, N);
        }));
    if (apps::trlyaSmallet(N, L->data(), W->data()))
      Add(Run([=](double *S) { apps::trlyaSmallet(N, L->data(), S); }));
    Add(Run([=](double *S) { naive::trlyaLower(N, L->data(), S); }));
    Add(Run([=](double *S) {
          cl1ck::trlyaLower(N, 4, L->data(), N, S, N);
        }));
  }
  return Out;
}

struct Row {
  Problem P;
  Instance I;
  sl::Kernel K;
  std::unique_ptr<Buffers> B;
  Series Gen;
  std::vector<Series> Base;
};

} // namespace

WorkloadResult runPaper(const Options &O, Tally &T) {
  WorkloadResult W;
  // Largest first, so the parallel set-up starts the longest compiles
  // early. (n = 28 is left out: trsyl28's translation unit alone takes
  // seconds to compile, which every set-up would pay.)
  for (int N : O.Smoke ? std::vector<int>{4} : std::vector<int>{20, 12, 4})
    for (const char *Kind : {"potrf", "trsyl", "trlya", "trtri"})
      W.Kernels.push_back({Kind, N});
  for (int N : O.Smoke ? std::vector<int>{4} : std::vector<int>{12, 4})
    for (const char *Kind : {"kf", "gpr", "l1a"})
      W.Kernels.push_back({Kind, N});

  std::vector<std::unique_ptr<Row>> Rows;
  std::vector<sl::Request> Reqs;
  for (const KernelSpec &S : W.Kernels) {
    auto R = std::make_unique<Row>(Row{Problem(S), {}, {}, {}, {}, {}});
    Rng Rand = seededRng(O.Seed, "paper/" + S.label());
    R->I = R->P.instance(Rand);
    auto Req = request(S, "paper_" + S.label()).measure(false).build();
    if (!Req) {
      fprintf(stderr, "slbench: %s\n", Req.status().str().c_str());
      std::exit(1);
    }
    Reqs.push_back(*Req);
    Rows.push_back(std::move(R));
  }

  // Set-up: every kernel from a fresh in-process service, several times.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < O.setupReps(); ++Rep) {
    auto T0 = Clock::now();
    auto Got = fetchAll("local:", Reqs, workers());
    SetupS.push_back(secondsSince(T0));
    for (size_t I = 0; I < Rows.size(); ++I)
      if (T.count(Got[I].ok(), "get " + Rows[I]->P.spec().label() + ": " +
                                   Got[I].status().str()))
        Rows[I]->K = *Got[I];
  }

  std::vector<Series *> All;
  for (auto &R : Rows) {
    if (!R->K.valid())
      continue;
    R->B = std::make_unique<Buffers>(R->P, 1);
    R->B->load(R->I, 0);
    sl::Status St = R->K.call(R->B->ptr());
    double Err = R->B->error(R->I, 0);
    if (!T.count(St.ok() && Err <= Tolerance,
                 formatf("%s: %s, error %g", R->P.spec().label().c_str(),
                         St.str().c_str(), Err)))
      continue;
    Row *Rp = R.get();
    R->Gen.Fn = [Rp] {
      Rp->B->restore(Rp->I);
      (void)Rp->K.call(Rp->B->ptr());
    };
    R->Base = baselines(R->P, R->I);
    All.push_back(&R->Gen);
    for (Series &S : R->Base)
      All.push_back(&S);
  }
  Series Ref = metronome();
  All.push_back(&Ref);
  for (Series *S : All)
    S->calibrate(WindowNs);
  Rng Order = seededRng(O.Seed, "paper/order");
  measureRounds(All, O.Seconds, O.Smoke ? 3 : 21, Order);

  std::vector<double> Lat, Tail, Rate, FPerC, Speedup;
  for (auto &R : Rows) {
    if (R->Gen.NsPerCall.empty())
      continue;
    // Every timed call started from the same inputs, so the last one left
    // the oracle's outputs behind.
    const std::string Label = R->P.spec().label();
    double Err = R->B->error(R->I, 0);
    T.count(Err <= Tolerance,
            formatf("%s after timing: error %g", Label.c_str(), Err));
    T.Attempted += static_cast<long>(R->Gen.NsPerCall.size());

    double Best = R->Base.front().p50();
    for (const Series &S : R->Base)
      Best = std::min(Best, S.p50());
    Lat.push_back(R->Gen.p50() / 1e3);
    Tail.push_back(R->Gen.p90() / 1e3);
    Rate.push_back(R->Gen.callsPerSecond());
    FPerC.push_back(R->P.spec().flops() / median(R->Gen.CyclesPerCall));
    Speedup.push_back(Best / R->Gen.p50());
    W.Notes.push_back(formatf("kernel.%s.call_ns %.1f ns", Label.c_str(),
                              R->Gen.p50()));
    W.Notes.push_back(formatf("kernel.%s.flops_per_cycle %.4f flop/cycle",
                              Label.c_str(), FPerC.back()));
    W.Notes.push_back(formatf("kernel.%s.speedup_vs_best_baseline %.3f x",
                              Label.c_str(), Speedup.back()));
  }
  W.EndToEnd["setup_s"] = median(SetupS);
  reportTimes(W, geomean(Lat), geomean(Tail), geomean(Rate), Ref.p50() / 1e3);
  W.Notes.push_back(formatf("flops_per_cycle %.4f flop/cycle", geomean(FPerC)));
  W.Notes.push_back(
      formatf("speedup_vs_best_baseline %.4f x", geomean(Speedup)));
  return W;
}

} // namespace slbench
