//===- slbench/main.cpp - one seeded command for the whole benchmark ------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   slbench --workload paper|cold|batch|serve --seed <n> [--seconds <s>]
//           [--trace 0|1] [--workdir <dir>] [--outdir <dir>] [--smoke]
//
// Runs one workload for --seconds (after its set-up and an untimed
// warm-up), checks every output against the expr::evalProgram oracle, and
// prints each metric as `name value unit`, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run has tracing on, counts compiler invocations through cc_count.sh,
// replays the workload's kernels through every layer (Layers.cpp), writes
// a Chrome trace to --outdir, and reports the per-layer metrics.
//
// The benchmark sets its own environment: TMPDIR and every cache live in a
// private directory <--workdir>/<pid>, removed at exit.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>

#include <unistd.h>

using namespace slbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Every metric with its unit, in print order; BENCHMARK.json lists the
/// same names.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"op_ref_p50", "ref"},
};

const MetricDef PerLayer[] = {
    {"la.parse_us", "us"},
    {"la.lower_us", "us"},
    {"expr.normalize_us", "us"},
    {"flame.synth_us", "us"},
    {"flame.variants", "count"},
    {"lgen.tile_us", "us"},
    {"lgen.insts", "count"},
    {"cir.unroll_us", "us"},
    {"cir.cse_us", "us"},
    {"cir.lso_us", "us"},
    {"cir.dce_us", "us"},
    {"cir.verify_us", "us"},
    {"cir.emit_us", "us"},
    {"cir.insts", "count"},
    {"cir.insts_ratio", "ratio"},
    {"cir.mem_ops", "count"},
    {"cir.shuffles", "count"},
    {"cir.c_kib", "KiB"},
    {"erm.bound_cycles", "cycles"},
    {"slingen.batch_emit_us", "us"},
    {"runtime.cc_calls_per_miss", "count"},
    {"runtime.cc_ms", "ms"},
    {"runtime.dlopen_us", "us"},
    {"runtime.call_ns", "ns"},
    {"runtime.batch_ns_per_inst", "ns"},
    {"runtime.pool_speedup", "x"},
    {"service.tune_variants_ms", "ms"},
    {"service.tune_strategy_ms", "ms"},
    {"service.server_us", "us"},
    {"service.hit_ratio", "ratio"},
    {"net.wire_us", "us"},
    {"net.reply_kib", "KiB"},
    {"client.load_us", "us"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char *Msg) {
  fprintf(stderr,
          "slbench: %s\n"
          "usage: slbench --workload paper|cold|batch|serve --seed <n> "
          "[--seconds <s>] [--trace 0|1] [--workdir <dir>] [--outdir <dir>] "
          "[--smoke]\n",
          Msg);
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  O.WorkDir = ".bench_build/slbench-work";
  O.OutDir = ".bench_build/slbench-out";
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage((Arg + " needs a value").c_str());
      return argv[++I];
    };
    auto Number = [&](const std::string &V) {
      char *End = nullptr;
      double D = strtod(V.c_str(), &End);
      if (V.empty() || *End || D < 0)
        usage((Arg + " takes a non-negative number").c_str());
      return D;
    };
    if (Arg == "--workload")
      O.Workload = Next();
    else if (Arg == "--seed") {
      O.Seed = static_cast<uint64_t>(Number(Next()));
      HaveSeed = true;
    } else if (Arg == "--seconds")
      O.Seconds = Number(Next());
    else if (Arg == "--trace")
      O.Trace = Number(Next()) != 0;
    else if (Arg == "--workdir")
      O.WorkDir = Next();
    else if (Arg == "--outdir")
      O.OutDir = Next();
    else if (Arg == "--smoke")
      O.Smoke = true;
    else
      usage(("unknown option " + Arg).c_str());
  }
  if (O.Workload != "paper" && O.Workload != "cold" && O.Workload != "batch" &&
      O.Workload != "serve")
    usage("--workload takes paper, cold, batch or serve");
  if (!HaveSeed)
    usage("--seed is required");
  // A directory of this process's own, so removing it at exit touches
  // nothing else.
  O.WorkDir += formatf("/%d", static_cast<int>(getpid()));
  return O;
}

/// A private TMPDIR (JIT staging and shipped objects) and, when traced,
/// cc_count.sh in front of the system compiler.
void setEnvironment(const Options &O) {
  std::filesystem::create_directories(O.WorkDir + "/tmp");
  setenv("TMPDIR", (O.WorkDir + "/tmp").c_str(), 1);
  unsetenv("SLINGEN_CC");
  if (O.Trace) {
    std::string Log = std::filesystem::absolute(O.WorkDir + "/cc.log");
    setenv("SLBENCH_CC_LOG", Log.c_str(), 1);
    setenv("SLINGEN_CC", "sh " SLBENCH_DIR "/cc_count.sh", 1);
  }
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);
  setEnvironment(O);
  sl::setTracing(O.Trace);

  Tally T;
  WorkloadResult W = O.Workload == "paper"  ? runPaper(O, T)
                     : O.Workload == "cold" ? runCold(O, T)
                     : O.Workload == "batch" ? runBatch(O, T)
                                             : runServe(O, T);
  W.Notes.push_back(formatf("peak_rss_mib %.6g MiB", peakRssMiB()));

  Metrics Layer;
  if (O.Trace) {
    Layer = probeLayers(O, W, T);
    std::filesystem::create_directories(O.OutDir);
    std::string Path = formatf("%s/%s-seed%llu.trace.json", O.OutDir.c_str(),
                               O.Workload.c_str(),
                               static_cast<unsigned long long>(O.Seed));
    std::string Err;
    if (!sl::exportTraceJson(Path, Err))
      T.count(false, "trace export: " + Err);
    else
      fprintf(stderr, "slbench: wrote %s\n", Path.c_str());
  }
  std::filesystem::remove_all(O.WorkDir);

  for (const std::string &Note : W.Notes)
    printf("%s\n", Note.c_str());
  const Metrics &Values = O.Trace ? Layer : W.EndToEnd;
  std::span<const MetricDef> Defs(O.Trace ? std::span<const MetricDef>(PerLayer)
                                          : std::span<const MetricDef>(EndToEnd));
  std::string Json;
  for (const MetricDef &D : Defs) {
    auto It = Values.find(D.Name);
    if (It == Values.end()) {
      T.count(false, std::string("metric not measured: ") + D.Name);
      continue;
    }
    printf("%s %.9g %s\n", D.Name, It->second, D.Unit);
    Json += formatf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    Json.empty() ? "" : ", ", D.Name, It->second, D.Unit);
  }
  long Failed = T.Failed.load();
  printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
         "\"metrics\": {%s}}\n",
         Failed == 0 ? "true" : "false", T.Attempted.load(), Failed,
         Json.c_str());
  return 0;
}
