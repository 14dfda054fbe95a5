//===- slbench/Batch.cpp - the `batch` workload ---------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Warm batched throughput through Kernel::callBatch: batched emission and
// the BatchPool do all the work; there is no cold path and no network.
// Each kernel is requested twice under distinct names, pinned to one
// thread and to workers() threads, so each width gets its own artifact.
// Counts 33 and 1024 cover a masked tail and pure full blocks.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <memory>

namespace slbench {

WorkloadResult runBatch(const Options &O, Tally &T) {
  WorkloadResult W;
  W.Miss = MissKind::BatchedPinned;
  W.Kernels = O.Smoke ? std::vector<KernelSpec>{{"potrf", 4}}
                      : std::vector<KernelSpec>{{"potrf", 4},
                                                {"potrf", 8},
                                                {"trsyl", 4},
                                                {"trlya", 4}};
  std::vector<int> Widths = {1};
  if (workers() > 1)
    Widths.push_back(workers());
  const std::vector<int> Counts =
      O.Smoke ? std::vector<int>{33} : std::vector<int>{33, 1024};
  const int Distinct = 33; // instances with oracle outputs; larger batches tile them

  struct Kern {
    Problem P;
    int Width;
    std::vector<Instance> I;
    sl::Kernel K;
  };
  std::vector<std::unique_ptr<Kern>> Kerns;
  std::vector<sl::Request> Reqs;
  for (const KernelSpec &S : W.Kernels) {
    Problem P(S);
    Rng R = seededRng(O.Seed, "batch/" + S.label());
    std::vector<Instance> I;
    for (int B = 0; B < Distinct; ++B)
      I.push_back(P.instance(R));
    for (int Width : Widths) {
      Kerns.push_back(std::make_unique<Kern>(Kern{Problem(S), Width, I, {}}));
      Reqs.push_back(*request(S, formatf("batch_%s_t%d", S.label().c_str(),
                                         Width))
                          .batched()
                          .threads(Width)
                          .build());
    }
  }

  std::vector<double> SetupS;
  for (int Rep = 0; Rep < O.setupReps(); ++Rep) {
    auto T0 = Clock::now();
    auto Got = fetchAll("local:", Reqs, workers());
    SetupS.push_back(secondsSince(T0));
    for (size_t I = 0; I < Kerns.size(); ++I)
      if (T.count(Got[I].ok(), "get " + Reqs[I].functionName() + ": " +
                                   Got[I].status().str()))
        Kerns[I]->K = *Got[I];
  }

  struct Row {
    Kern *K;
    int Count;
    std::unique_ptr<Buffers> B;
    Series S;
  };
  std::vector<std::unique_ptr<Row>> Rows;
  std::vector<Series *> All;
  for (auto &K : Kerns) {
    if (!K->K.valid())
      continue;
    W.Notes.push_back(formatf("kernel.%s.strategy %s/%d threads",
                              K->K.functionName().c_str(),
                              K->K.strategy().c_str(), K->K.batchThreads()));
    for (int Count : Counts) {
      auto R = std::make_unique<Row>(
          Row{K.get(), Count, std::make_unique<Buffers>(K->P, Count), {}});
      for (int Slot = 0; Slot < Count; ++Slot)
        R->B->load(K->I[Slot % Distinct], Slot);
      sl::Status St = K->K.callBatch(Count, R->B->ptr());
      if (!T.count(St.ok(), K->K.functionName() + ": " + St.str()))
        continue;
      Row *Rp = R.get();
      R->S.Fn = [Rp] { (void)Rp->K->K.callBatch(Rp->Count, Rp->B->ptr()); };
      All.push_back(&R->S);
      Rows.push_back(std::move(R));
    }
  }
  Series Ref = metronome();
  All.push_back(&Ref);
  for (Series *S : All)
    S->calibrate(WindowNs);
  Rng Order = seededRng(O.Seed, "batch/order");
  measureRounds(All, O.Seconds, O.Smoke ? 3 : 21, Order);

  // The kernels are idempotent on their inputs: after timing, every slot
  // holds its instance's oracle outputs.
  std::vector<double> Lat, Tail, Rate, Rate1, RateMT;
  for (auto &R : Rows) {
    double Err = 0.0;
    for (int Slot = 0; Slot < R->Count; ++Slot)
      Err = std::max(Err, R->B->error(R->K->I[Slot % Distinct], Slot));
    const std::string Name =
        formatf("%s.n%d", R->K->K.functionName().c_str(), R->Count);
    T.count(Err <= Tolerance, formatf("%s: error %g", Name.c_str(), Err));
    T.Attempted += static_cast<long>(R->S.NsPerCall.size());
    Lat.push_back(R->S.p50() / 1e3);
    Tail.push_back(R->S.p90() / 1e3);
    Rate.push_back(R->Count * R->S.callsPerSecond());
    (R->K->Width == 1 ? Rate1 : RateMT).push_back(Rate.back() / 1e6);
    W.Notes.push_back(formatf("row.%s.ns_per_inst %.2f ns", Name.c_str(),
                              R->S.p50() / R->Count));
  }
  W.EndToEnd["setup_s"] = median(SetupS);
  reportTimes(W, geomean(Lat), geomean(Tail), geomean(Rate), Ref.p50() / 1e3);
  W.Notes.push_back(formatf("batch_minst_per_s_1t %.4f Minst/s", geomean(Rate1)));
  if (!RateMT.empty())
    W.Notes.push_back(formatf("batch_minst_per_s_mt %.4f Minst/s",
                              geomean(RateMT)));
  return W;
}

} // namespace slbench
