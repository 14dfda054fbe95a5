//===- slbench/Layers.cpp - the traced run's per-layer probe ---------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// After a traced run of its workload, slbench replays that workload's
// kernels through each layer's public functions, inside spans of its own,
// and reports one number per layer:
//
//   la, expr, flame, lgen, cir, slingen  the generator stages of the static
//       best variant, one call each, median of several replays, mean per
//       kernel; IR sizes and ERM counts summed over the kernel set;
//   runtime, client, service, net  a private daemon serves the smallest
//       few kernels (batched, fused, one thread): its compile, hits over
//       the wire, dlopen, calls, batch calls and the batch pool;
//   service tuner  tuneKernel and chooseBatchStrategy on the smallest;
//   runtime.cc_calls_per_miss  one miss of the workload's own kind, with
//       the compiler invocations counted by cc_count.sh;
//   obs  hits with tracing off against hits with it on.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cir/CEmitter.h"
#include "cir/Passes.h"
#include "erm/Erm.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Parser.h"
#include "obs/Trace.h"
#include "runtime/BatchPool.h"
#include "runtime/Jit.h"
#include "service/Tuner.h"
#include "slingen/SLinGen.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

namespace slbench {

namespace {

/// Runs \p Fn inside a span named \p Name and appends its microseconds to
/// \p Out.
template <typename F>
auto timed(const char *Name, std::vector<double> &Out, F &&Fn) {
  obs::ScopedSpan Span(Name, "slbench");
  auto T0 = Clock::now();
  struct Stop {
    std::vector<double> &Out;
    Clock::time_point T0;
    ~Stop() { Out.push_back(secondsSince(T0) * 1e6); }
  } S{Out, T0};
  return Fn();
}

/// Compiler invocations recorded so far by cc_count.sh (version probes
/// excluded).
long ccInvocations() {
  const char *Log = getenv("SLBENCH_CC_LOG");
  std::ifstream In(Log ? Log : "");
  long N = 0;
  for (std::string Line; std::getline(In, Line);)
    N += Line.find(" -shared ") != std::string::npos;
  return N;
}

using Samples = std::map<std::string, std::vector<double>>;

/// Replays the generator pipeline of \p S's static best variant \p Reps
/// times; appends per-stage medians to \p Stage and counts to \p Count.
void replayGenerator(const KernelSpec &S, const GenOptions &Opt, bool Batched,
                     int Reps, Samples &Stage, Metrics &Count, Tally &T) {
  std::string Err;
  auto Prog = la::compileLa(S.source(), Err);
  Generator G0(std::move(*Prog), Opt);
  std::vector<GenResult> All = G0.enumerate(16);
  if (!T.count(!All.empty(), "no variant for " + S.label()))
    return;
  const GenResult &Best = All.front();
  Count["flame.variants"] += static_cast<double>(All.size());

  GenOptions Off = Opt;
  Off.EnableUnroll = Off.EnableCse = Off.EnableLoadStoreOpt =
      Off.EnableDce = false;
  Samples Mine;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    std::string Src = S.source();
    auto Ast = timed("la.parse_us", Mine["la.parse_us"],
                     [&] { return la::parse(Src, Err); });
    auto P0 = timed("la.lower_us", Mine["la.lower_us"],
                    [&] { return la::lower(*Ast, Err); });
    auto G = timed("expr.normalize_us", Mine["expr.normalize_us"], [&] {
      return std::make_unique<Generator>(std::move(*P0), Opt);
    });
    GenResult R;
    R.Basic = G->normalized().clone();
    R.Choice = Best.Choice;
    timed("flame.synth_us", Mine["flame.synth_us"], [&] {
      return expandProgramHlacs(R.Basic, Opt.blockSize(), R.Choice);
    });
    R.Func = timed("lgen.tile_us", Mine["lgen.tile_us"],
                   [&] { return compileBasicProgram(R.Basic, Off); });
    int Before = cir::countInsts(R.Func);
    timed("cir.unroll_us", Mine["cir.unroll_us"],
          [&] { cir::unrollLoops(R.Func, Opt.UnrollMaxTrip); });
    std::vector<double> Cse;
    timed("cir.cse_us", Cse, [&] { cir::cse(R.Func); });
    timed("cir.lso_us", Mine["cir.lso_us"], [&] { cir::loadStoreOpt(R.Func); });
    timed("cir.cse_us", Cse, [&] { cir::cse(R.Func); });
    Mine["cir.cse_us"].push_back(Cse[0] + Cse[1]);
    timed("cir.dce_us", Mine["cir.dce_us"], [&] { cir::dce(R.Func); });
    R.Cost = staticCost(R.Func);
    auto VE = timed("cir.verify_us", Mine["cir.verify_us"], [&] {
      return verifyEmittedIR(R, &Opt, Batched,
                             Batched ? BatchStrategy::InstanceParallelFused
                                     : BatchStrategy::ScalarLoop);
    });
    std::string C = timed("cir.emit_us", Mine["cir.emit_us"],
                          [&] { return emitC(R); });
    timed("slingen.batch_emit_us", Mine["slingen.batch_emit_us"],
          [&] { return emitBatchedVectorFusedC(R, &Opt); });
    if (Rep > 0)
      continue;
    // The replay must be the pipeline: same IR as Generator::enumerate.
    T.count(!VE && cir::countInsts(R.Func) == cir::countInsts(Best.Func),
            "replayed pipeline diverges for " + S.label());
    erm::Analysis A = erm::analyze(R.Func);
    Count["lgen.insts"] += Before;
    Count["cir.insts"] += cir::countInsts(R.Func);
    Count["cir.mem_ops"] += static_cast<double>(A.Loads + A.Stores);
    Count["cir.shuffles"] += static_cast<double>(A.Shuffles + A.Blends);
    Count["erm.bound_cycles"] += A.BoundCycles;
    Count["cir.c_kib"] += C.size() / 1024.0;
  }
  for (auto &[Name, V] : Mine)
    Stage[Name].push_back(median(V));
}

double mean(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return Sum / V.size();
}

/// Median of \p Fn's time in microseconds over \p Reps runs.
double medianUs(int Reps, const std::function<void()> &Fn) {
  std::vector<double> Us;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Fn();
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

} // namespace

Metrics probeLayers(const Options &O, const WorkloadResult &W, Tally &T) {
  GenOptions Opt;
  Opt.Isa = &hostIsa();
  Opt.FuncName = "probe";
  const bool Batched = W.Miss != MissKind::Static;
  const int Reps = O.Smoke ? 1 : 5;

  // Generator stages on every kernel of the workload.
  Samples Stage;
  Metrics M;
  {
    obs::ScopedSpan Span("probe.generator", "slbench");
    for (const KernelSpec &S : W.Kernels)
      replayGenerator(S, Opt, Batched, Reps, Stage, M, T);
  }
  for (auto &[Name, V] : Stage)
    M[Name] = mean(V);
  M["cir.insts_ratio"] = M["cir.insts"] / M["lgen.insts"];

  // The JIT, serving and tuner replays take the smallest kernels: the
  // largest translation units take seconds per compile.
  std::vector<KernelSpec> Small = W.Kernels;
  std::stable_sort(Small.begin(), Small.end(),
                   [](const KernelSpec &A, const KernelSpec &B) {
                     return A.N < B.N;
                   });

  // A private daemon serves the first kernels: compile, hits, loads, calls.
  const size_t NProbe = std::min<size_t>(O.Smoke ? 1 : 4, Small.size());
  const int Hits = O.Smoke ? 20 : 200;
  // Per-kernel samples, averaged -- or, for call times that differ by
  // orders of magnitude across kernels, combined by geomean.
  Samples Mean, Geo;
  {
    obs::ScopedSpan Span("probe.serving", "slbench");
    Daemon D(O.WorkDir + "/probe");
    auto Sess = sl::Session::open(D.address());
    if (!T.count(Sess.ok(), "probe session: " + Sess.status().str()))
      return M;
    std::vector<sl::Request> Reqs;
    for (size_t I = 0; I < NProbe; ++I) {
      const KernelSpec &Spec = Small[I];
      Problem P(Spec);
      Rng R = seededRng(O.Seed, "probe/" + Spec.label());
      Instance Inst = P.instance(R);
      Reqs.push_back(*request(Spec, "probe_" + Spec.label())
                          .batched()
                          .strategy("fused")
                          .threads(1)
                          .measure(false)
                          .wantTiming(true)
                          .build());
      auto K = Sess->get(Reqs.back());
      if (!T.count(K.ok() && K->timing(),
                   "probe get " + Spec.label() + ": " + K.status().str()))
        continue;
      Mean["runtime.cc_ms"].push_back(K->timing()->CompileUs / 1e3);
      std::vector<double> Server, Wire;
      for (int H = 0; H < Hits; ++H) {
        auto Hit = Sess->get(Reqs.back());
        if (!T.count(Hit.ok(), "probe hit: " + Hit.status().str()))
          continue;
        Server.push_back(static_cast<double>(Hit->timing()->TotalUs));
        Wire.push_back(static_cast<double>(Hit->timing()->RoundTripUs -
                                           Hit->timing()->TotalUs));
      }
      Mean["service.server_us"].push_back(mean(Server));
      Mean["net.wire_us"].push_back(mean(Wire));
      Mean["net.reply_kib"].push_back(
          (K->objectBytes().size() + K->cSource().size()) / 1024.0);

      std::string Err;
      const std::string &Bytes = K->objectBytes();
      Mean["client.load_us"].push_back(medianUs(20, [&] {
        T.count(runtime::JitKernel::loadFromBytes(Bytes, K->functionName(),
                                                  K->numParams(), Err, true)
                    .has_value(),
                "loadFromBytes: " + Err);
      }));
      std::string SoPath = formatf("%s/probe/%s.so", O.WorkDir.c_str(),
                                   Spec.label().c_str());
      std::ofstream(SoPath, std::ios::binary) << Bytes;
      Mean["runtime.dlopen_us"].push_back(medianUs(20, [&] {
        T.count(runtime::JitKernel::load(SoPath, K->functionName(),
                                         K->numParams(), Err, true)
                    .has_value(),
                "dlopen: " + Err);
      }));

      // Calls: one instance, a 1024-instance batch, and the same batch
      // spread over the pool (on the object this process loaded itself),
      // each from restored inputs.
      const int Count = 1024;
      Buffers One(P, 1), Many(P, Count);
      One.load(Inst, 0);
      for (int Slot = 0; Slot < Count; ++Slot)
        Many.load(Inst, Slot);
      auto JK = runtime::JitKernel::loadFromBytes(Bytes, K->functionName(),
                                                  K->numParams(), Err, true);
      if (!T.count(JK.has_value(), "loadFromBytes: " + Err))
        continue;
      const int Nu = hostIsa().Nu;
      Series Call, Batch, Single, Pooled;
      Call.Fn = [&] {
        One.restore(Inst);
        (void)K->call(One.ptr());
      };
      Batch.Fn = [&] {
        Many.restore(Inst);
        (void)K->callBatch(Count, Many.ptr());
      };
      Single.Fn = [&] {
        Many.restore(Inst);
        JK->callBatch(Count, Many.ptr());
      };
      Pooled.Fn = [&] {
        Many.restore(Inst);
        runtime::callBatchParallel(*JK, Count, Many.ptr(), Nu, workers());
      };
      std::vector<Series *> All = {&Call, &Batch, &Single, &Pooled};
      for (Series *X : All)
        X->calibrate(WindowNs);
      measureRounds(All, 0.0, O.Smoke ? 3 : 21, R);
      T.count(One.error(Inst, 0) <= Tolerance &&
                  Many.error(Inst, Count - 1) <= Tolerance,
              "probe outputs of " + Spec.label());
      Geo["runtime.call_ns"].push_back(Call.p50());
      Geo["runtime.batch_ns_per_inst"].push_back(Batch.p50() / Count);
      Geo["runtime.pool_speedup"].push_back(Single.p50() / Pooled.p50());
    }

    service::ServiceStats St = D.Svc.stats();
    M["service.hit_ratio"] =
        static_cast<double>(St.MemHits + St.DiskHits) /
        std::max<long>(1, St.MemHits + St.DiskHits + St.Misses);

    // Tracing cost on the hit path: alternate blocks with spans off and on.
    std::vector<double> Off, On;
    for (int Block = 0; Block < (O.Smoke ? 2 : 20) && !Reqs.empty(); ++Block) {
      sl::setTracing(Block % 2 == 1);
      auto T0 = Clock::now();
      for (int H = 0; H < Hits / 4; ++H)
        (void)Sess->get(Reqs[H % Reqs.size()]);
      (Block % 2 ? On : Off).push_back(secondsSince(T0));
    }
    sl::setTracing(true);
    M["obs.trace_overhead_pct"] = (median(On) / median(Off) - 1.0) * 100.0;
  }
  for (auto &[Name, V] : Mean)
    M[Name] = mean(V);
  for (auto &[Name, V] : Geo)
    M[Name] = geomean(V);

  // The tuner on the smallest kernel: measured variants, then the strategy.
  {
    std::string Err;
    auto P = la::compileLa(Small[0].source(), Err);
    Generator G(std::move(*P), Opt);
    service::TuneOptions TO;
    TO.ExtraFlags = runtime::isaCompileFlags(*Opt.Isa);
    std::vector<double> Variants, Strategy;
    auto Tuned = timed("service.tune_variants", Variants,
                       [&] { return service::tuneKernel(G, TO, Err); });
    if (T.count(Tuned.has_value(), "tuneKernel: " + Err))
      timed("service.tune_strategy", Strategy, [&] {
        return service::chooseBatchStrategy(Tuned->Result, Opt, TO, true, 1);
      });
    M["service.tune_variants_ms"] = Variants[0] / 1e3;
    M["service.tune_strategy_ms"] = Strategy.empty() ? 0.0 : Strategy[0] / 1e3;
  }

  // One miss of the workload's own kind, counting compiler invocations.
  {
    obs::ScopedSpan Span("probe.miss", "slbench");
    auto Sess = sl::Session::open("local:" + O.WorkDir + "/probe-miss");
    if (!T.count(Sess.ok(), "probe session: " + Sess.status().str()))
      return M;
    auto B = request(Small[0], "probe_miss");
    if (W.Miss == MissKind::BatchedMeasured)
      B.batched().measure(true);
    else if (W.Miss == MissKind::BatchedPinned)
      B.batched().threads(1);
    else
      B.measure(false);
    long Before = ccInvocations();
    auto K = Sess->get(*B.build());
    T.count(K.ok(), "probe miss: " + K.status().str());
    M["runtime.cc_calls_per_miss"] =
        static_cast<double>(ccInvocations() - Before);
  }
  return M;
}

} // namespace slbench
