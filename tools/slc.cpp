//===- tools/slc.cpp - the SLinGen command-line compiler -------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The user-facing generator, built on the public client API
// (slingen/client.h): every serving-path request -- cached, measured,
// batched, or remote -- goes through one sl::Session, whether it resolves
// to an in-process service (`local:`) or a running sld daemon (-connect).
// Only the local introspection flags (-variant, -print-variants,
// -print-basic without a service) drive the Generator pipeline directly.
//
//   slc [options] input.la
//     -o <file>        output C file (default: stdout)
//     -isa <name>      scalar | sse2 | avx | avx512 (default: avx)
//     -name <ident>    generated function name (default: from file name)
//     -variant <n,...> per-HLAC algorithm choice (default: autotune by
//                      cost model)
//     -max-variants N  autotuning search budget (default 16)
//     -measure         rank variants by JIT-compiled timings (measured
//                      autotuner; falls back to the cost model when no C
//                      compiler is available)
//     -cache-dir <dir> persist/reuse kernels in a disk cache
//     -batch           also emit the <name>_batch(int count, ...) entry
//     -batch-strategy  loop | fused | auto (default auto): how the
//                      batch entry iterates instances
//     -batch-threads k batched dispatch width recorded on the artifact
//                      (0 = auto: one thread; k >= 1 pins)
//     -set k=v         any GenOptions key (see slingen/OptionsIO.h); the
//                      named flags above are sugar for these
//     -service k=v     any ServiceConfig key (local service mode)
//     -connect <addr>  serve the request from the sld daemon at <addr>
//                      (a unix socket path, unix:<path>, or host:port)
//     -timeout-ms <n>  per-request deadline: fail with deadline-exceeded
//                      after <n> ms instead of waiting forever (the daemon
//                      sheds the work too when it speaks the deadline
//                      field)
//     -retries <n>     transport/overload retry budget per request
//                      (default 2; 0 disables retries)
//     -so-out <file>   also write the compiled shared object (from the
//                      daemon with -connect, from the local JIT otherwise)
//     -warm <file>     queue a prefetch for every .la path listed in
//                      <file> (one per line, # comments) -- on the daemon
//                      with -connect, else on a local service (wants
//                      -cache-dir); exits after queueing/draining
//     -stats           print the serving side's counters (with -connect:
//                      the daemon's) plus derived hit rates, then exit
//     --raw            with -stats: also append the raw METRICS scrape
//                      text after the stats document
//     -metrics         print the serving side's metrics registry (the
//                      METRICS scrape: counters, gauges, histogram
//                      percentiles, per-kernel/per-peer tables), then exit
//     -timing          request the per-phase timing breakdown and print
//                      it to stderr (tier, generation/compile/tune time,
//                      round trip)
//     -trace-out <f>   collect phase spans for this run and write them as
//                      Chrome trace-event JSON to <f>
//     -print-basic     also print the Stage 1 basic program to stderr
//     -print-variants  list HLACs and their variant counts, then exit
//     -verify-ir       run the C-IR static verifier (cir/Verify.h) over the
//                      generated function -- and, with -batch on a vector
//                      ISA, over every widened batch variant -- printing a
//                      per-function report to stderr; nonzero exit on any
//                      violation
//
//===----------------------------------------------------------------------===//

#include "slingen/client.h"

#include "cir/Verify.h"
#include "la/Lower.h"
#include "service/Tuner.h"
#include "slingen/OptionsIO.h"
#include "slingen/SLinGen.h"
#include "support/File.h"
#include "support/Format.h"
#include "support/KeyValue.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace slingen;

namespace {

void usage(const char *Argv0) {
  fprintf(stderr,
          "usage: %s [options] input.la\n"
          "  -o <file>         output C file (default: stdout)\n"
          "  -isa <name>       scalar | sse2 | avx | avx512 (default: avx)\n"
          "  -name <ident>     generated function name\n"
          "  -variant <n,...>  per-HLAC algorithm indices\n"
          "  -max-variants N   autotuning search budget (default 16)\n"
          "  -measure          rank variants by measured cycles (needs a C\n"
          "                    compiler; falls back to the static model)\n"
          "  -cache-dir <dir>  persist/reuse compiled kernels across runs\n"
          "  -batch            also emit <name>_batch(int count, ...)\n"
          "  -batch-strategy <s>  loop | fused | auto (default auto)\n"
          "  -batch-threads <k>  dispatch width (0 = 1 thread, k >= 1 pins)\n"
          "  -set k=v          set any GenOptions key\n"
          "  -service k=v      set any ServiceConfig key\n"
          "  -connect <addr>   request from the sld daemon at <addr>\n"
          "  -timeout-ms <n>   per-request deadline in milliseconds\n"
          "  -retries <n>      transport/overload retry budget (default 2)\n"
          "  -so-out <file>    save the compiled shared object\n"
          "  -warm <file>      prefetch every .la listed in <file>\n"
          "  -stats            print serving-side counters + hit rates\n"
          "  --raw             with -stats: append the raw METRICS text\n"
          "  -metrics          print the serving-side metrics scrape\n"
          "  -timing           print the request's phase breakdown\n"
          "  -trace-out <f>    write Chrome trace JSON for this run\n"
          "  -print-basic      print the Stage 1 basic program to stderr\n"
          "  -print-variants   list HLAC variant counts and exit\n"
          "  -verify-ir        print the per-function C-IR verification\n"
          "                    report (single-instance kernel plus every\n"
          "                    batched widening with -batch) to stderr;\n"
          "                    exit nonzero on any violation\n",
          Argv0);
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Name = Slash == std::string::npos ? Path
                                                : Path.substr(Slash + 1);
  size_t Dot = Name.find_last_of('.');
  if (Dot != std::string::npos)
    Name = Name.substr(0, Dot);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  if (Name.empty() || isdigit(static_cast<unsigned char>(Name[0])))
    Name = "kernel_" + Name;
  return Name;
}

/// The provenance header prepended to every emitted translation unit. One
/// formatter, so local service output and daemon output stay byte-equal
/// for the same request (check.sh diffs them).
std::string headerComment(const std::string &Input, const std::string &Isa,
                          const std::string &Key, long StaticCost,
                          bool Measured, double MeasuredCycles) {
  std::string C =
      "/* Generated by slc from " + Input + " -- SLinGen reproduction.\n";
  C += " * ISA: " + Isa;
  if (!Key.empty())
    C += ", cache key: " + Key;
  C += ", static cost estimate: " + std::to_string(StaticCost) + " cycles";
  if (Measured)
    C += formatf(", measured median: %.1f cycles", MeasuredCycles);
  C += ". */\n";
  return C;
}

/// Paths listed one per line; blank lines and #-comments skipped.
std::vector<std::string> readWarmList(const std::string &Path, bool &Ok) {
  std::vector<std::string> Files;
  std::ifstream In(Path);
  Ok = static_cast<bool>(In);
  std::string Line;
  while (std::getline(In, Line)) {
    while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;
    Files.push_back(Line);
  }
  return Files;
}

int fail(const std::string &Msg) {
  fprintf(stderr, "error: %s\n", Msg.c_str());
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string Input, Output, VariantStr, ConnectAddr, SoOut, WarmFile,
      CacheDir, StrategyName, TraceOut;
  bool PrintBasic = false, PrintVariants = false, Batch = false,
       StatsMode = false, MetricsMode = false, RawStats = false,
       TimingSet = false, VerifyIr = false;
  // Requests only override what the user explicitly set, so a bare
  // `slc -connect` defers strategy/measure/threads policy to the daemon.
  bool MeasureSet = false, NameSet = false, ThreadsSet = false;
  int MaxVariants = 16, BatchThreads = 0, TimeoutMs = 0, Retries = -1;
  // Flags that configure a *local* service and do not travel over the
  // wire; remote modes warn when they were set.
  bool LocalServiceFlags = false;

  GenOptions Options; // eager flag validation + the legacy pipeline path
  std::vector<std::pair<std::string, std::string>> GenPairs;
  sl::SessionConfig ServiceCfg; // `local:` backend knobs, applied in order
  std::string Err;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage(argv[0]);
        exit(1);
      }
      return argv[++I];
    };
    // Every generator flag funnels into applyGenOption -- the named flags
    // are spelling sugar for the serialized key set -- and is recorded as
    // a key=value pair for the request builder.
    auto SetGen = [&](const char *Key, const std::string &Value) {
      if (!applyGenOption(Options, Key, Value, Err))
        exit(fail(Err));
      GenPairs.emplace_back(Key, Value);
    };
    auto SetService = [&](const std::string &Key, const std::string &Value) {
      ServiceCfg.ServiceOptions.emplace_back(Key, Value);
    };
    if (Arg == "-o")
      Output = Next();
    else if (Arg == "-isa")
      SetGen("isa", Next());
    else if (Arg == "-name") {
      SetGen("func", Next());
      NameSet = true;
    } else if (Arg == "-variant")
      VariantStr = Next();
    else if (Arg == "-max-variants") {
      std::string N = Next();
      MaxVariants = atoi(N.c_str());
      if (MaxVariants <= 0)
        return fail("-max-variants takes a positive count");
      SetService("max-variants", N);
      LocalServiceFlags = true;
    } else if (Arg == "-measure")
      MeasureSet = true;
    else if (Arg == "-cache-dir") {
      CacheDir = Next();
      SetService("cache-dir", CacheDir);
      LocalServiceFlags = true;
    }
    else if (Arg == "-batch")
      Batch = true;
    else if (Arg == "-batch-strategy") {
      StrategyName = Next();
      if (!batchStrategyByName(StrategyName)) {
        fprintf(stderr,
                "error: -batch-strategy takes loop, fused, or auto\n");
        return 1;
      }
    } else if (Arg == "-batch-threads") {
      std::string K = Next();
      BatchThreads = atoi(K.c_str());
      if (BatchThreads < 0 || BatchThreads > 1024 ||
          K.find_first_not_of("0123456789") != std::string::npos)
        return fail("-batch-threads takes 0 (auto) to 1024");
      ThreadsSet = true;
    } else if (Arg == "-set" || Arg == "-service") {
      std::string KV = Next();
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos)
        return fail(Arg + " takes key=value");
      if (Arg == "-set")
        SetGen(KV.substr(0, Eq).c_str(), KV.substr(Eq + 1));
      else {
        SetService(KV.substr(0, Eq), KV.substr(Eq + 1));
        LocalServiceFlags = true;
      }
    } else if (Arg == "-connect")
      ConnectAddr = Next();
    else if (Arg == "-timeout-ms") {
      std::string N = Next();
      TimeoutMs = atoi(N.c_str());
      if (TimeoutMs <= 0 ||
          N.find_first_not_of("0123456789") != std::string::npos)
        return fail("-timeout-ms takes a positive millisecond budget");
    } else if (Arg == "-retries") {
      std::string N = Next();
      Retries = atoi(N.c_str());
      if (N.empty() || N.find_first_not_of("0123456789") != std::string::npos)
        return fail("-retries takes a retry count (0 disables retries)");
    }
    else if (Arg == "-so-out")
      SoOut = Next();
    else if (Arg == "-warm")
      WarmFile = Next();
    else if (Arg == "-stats")
      StatsMode = true;
    else if (Arg == "--raw")
      RawStats = true;
    else if (Arg == "-metrics")
      MetricsMode = true;
    else if (Arg == "-timing")
      TimingSet = true;
    else if (Arg == "-trace-out")
      TraceOut = Next();
    else if (Arg == "-print-basic")
      PrintBasic = true;
    else if (Arg == "-print-variants")
      PrintVariants = true;
    else if (Arg == "-verify-ir")
      VerifyIr = true;
    else if (Arg == "-h" || Arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      usage(argv[0]);
      return 1;
    } else if (Input.empty()) {
      Input = Arg;
    } else {
      return fail("multiple inputs");
    }
  }

  if (!ConnectAddr.empty() && LocalServiceFlags)
    fprintf(stderr,
            "warning: -cache-dir/-max-variants/-service configure a local "
            "service and are ignored with -connect (the daemon uses its "
            "own config)\n");
  if (Retries >= 0 && ConnectAddr.empty())
    fprintf(stderr,
            "warning: -retries only affects daemon requests (-connect)\n");
  if (!StrategyName.empty() && !Batch)
    fprintf(stderr, "warning: -batch-strategy has no effect without -batch\n");
  if (ThreadsSet && !Batch)
    fprintf(stderr, "warning: -batch-threads has no effect without -batch\n");

  // Collection must be on before the session exists so connect/produce
  // spans land in the export.
  if (!TraceOut.empty())
    sl::setTracing(true);
  auto writeTrace = [&]() -> bool {
    if (TraceOut.empty())
      return true;
    std::string TErr;
    if (!sl::exportTraceJson(TraceOut, TErr)) {
      fprintf(stderr, "error: cannot write trace: %s\n", TErr.c_str());
      return false;
    }
    fprintf(stderr, "trace: wrote %s\n", TraceOut.c_str());
    return true;
  };

  /// One request shape for every serving path (warm, local, remote).
  auto buildRequest = [&](const std::string &Source,
                          const std::string &DefaultName) {
    sl::RequestBuilder B;
    B.source(Source);
    for (const auto &[Key, Value] : GenPairs)
      B.option(Key, Value);
    if (!NameSet)
      B.name(DefaultName);
    if (Batch) {
      B.batched();
      if (!StrategyName.empty())
        B.strategy(StrategyName);
      if (ThreadsSet)
        B.threads(BatchThreads);
    }
    if (MeasureSet)
      B.measure();
    if (TimeoutMs > 0)
      B.deadlineMs(TimeoutMs);
    B.wantObject(!SoOut.empty());
    if (TimingSet)
      B.wantTiming();
    return B.build();
  };

  /// Resolves the session address: the daemon with -connect, an
  /// in-process service otherwise. Local sessions only enable the C
  /// compiler when something needs the object (-measure tuning, a disk
  /// cache worth persisting, -so-out); a plain `slc foo.la` stays a pure
  /// source-to-source run exactly as before.
  auto openSession = [&]() -> sl::Result<sl::Session> {
    if (!ConnectAddr.empty()) {
      sl::SessionConfig C;
      if (Retries >= 0)
        C.MaxRetries = Retries;
      return sl::Session::open(ConnectAddr, C);
    }
    sl::SessionConfig C;
    if (!MeasureSet && CacheDir.empty() && SoOut.empty())
      C.ServiceOptions.emplace_back("use-compiler", "0");
    if (MeasureSet)
      C.ServiceOptions.emplace_back("measure", "1");
    for (const auto &KV : ServiceCfg.ServiceOptions)
      C.ServiceOptions.push_back(KV); // user -service keys win (applied last)
    return sl::Session::open("local:", C);
  };

  if (RawStats && !StatsMode)
    fprintf(stderr, "warning: --raw only affects -stats output\n");

  //===--------------------------------------------------------------------===//
  // Metrics mode: dump the serving side's metrics registry (the METRICS
  // verb against a daemon, this process's registry for local:).
  //===--------------------------------------------------------------------===//
  if (MetricsMode) {
    if (StatsMode)
      return fail("-stats and -metrics are mutually exclusive");
    if (!Input.empty())
      return fail("-metrics takes no positional input");
    if (ConnectAddr.empty())
      fprintf(stderr, "warning: -metrics without -connect reports a fresh "
                      "local process (mostly empty); point it at a daemon\n");
    auto S = openSession();
    if (!S)
      return fail(S.message());
    auto M = S->metrics();
    if (!M)
      return fail(M.message());
    fputs(M->c_str(), stdout);
    return 0;
  }

  //===--------------------------------------------------------------------===//
  // Stats mode: dump the serving side's counters plus derived rates.
  //===--------------------------------------------------------------------===//
  if (StatsMode) {
    if (!Input.empty())
      return fail("-stats takes no positional input");
    if (ConnectAddr.empty())
      fprintf(stderr, "warning: -stats without -connect reports a fresh "
                      "local service (all zeros); point it at a daemon\n");
    auto S = openSession();
    if (!S)
      return fail(S.message());
    auto Stats = S->stats();
    if (!Stats)
      return fail(Stats.message());
    fputs(Stats->c_str(), stdout);
    // Derived rates, marked as comments so the raw document above stays
    // machine-parseable as plain key=value lines. One fixed field order
    // (requests, hit, mem, disk, generated), every field always present
    // -- scripts can cut on position without probing which fields
    // happened to be nonzero.
    auto KV = parseKeyValueMap(*Stats);
    long MemHits = atol(KV["mem-hits"].c_str());
    long DiskHits = atol(KV["disk-hits"].c_str());
    long Misses = atol(KV["misses"].c_str());
    long Requests = MemHits + DiskHits + Misses;
    auto Pct = [&](long N) {
      return Requests > 0 ? 100.0 * N / Requests : 0.0;
    };
    printf("# requests=%ld hit=%.1f%% mem=%.1f%% disk=%.1f%% "
           "generated=%.1f%%\n",
           Requests, Pct(MemHits + DiskHits), Pct(MemHits), Pct(DiskHits),
           Pct(Misses));
    if (RawStats) {
      // The full scrape, same bytes as `slc -metrics`, separated so the
      // key=value stats document above stays parseable on its own.
      auto M = S->metrics();
      if (!M)
        return fail(M.message());
      printf("# --- metrics ---\n");
      fputs(M->c_str(), stdout);
    }
    return 0;
  }

  //===--------------------------------------------------------------------===//
  // Warm mode: queue prefetches for a list of programs, then exit.
  //===--------------------------------------------------------------------===//
  if (!WarmFile.empty()) {
    if (!Input.empty())
      return fail("-warm takes its programs from the list file; "
                  "no positional input allowed");
    bool Ok = false;
    std::vector<std::string> Files = readWarmList(WarmFile, Ok);
    if (!Ok)
      return fail("cannot open warm list " + WarmFile);
    if (Files.empty())
      return fail("warm list " + WarmFile + " names no programs");
    if (ConnectAddr.empty() && CacheDir.empty())
      fprintf(stderr, "warning: -warm without -cache-dir or -connect "
                      "warms a cache that dies with this process\n");

    auto S = openSession();
    if (!S)
      return fail(S.message());

    int Failures = 0;
    for (const std::string &File : Files) {
      bool ReadOk = false;
      std::string Source = readFile(File, &ReadOk);
      if (!ReadOk) {
        fprintf(stderr, "warm: cannot open %s\n", File.c_str());
        ++Failures;
        continue;
      }
      auto R = buildRequest(Source, baseName(File));
      if (!R) {
        fprintf(stderr, "warm: %s: %s\n", File.c_str(),
                R.message().c_str());
        ++Failures;
        continue;
      }
      if (sl::Status St = S->warm(*R); !St) {
        fprintf(stderr, "warm: %s: %s\n", File.c_str(),
                St.message().c_str());
        ++Failures;
        continue;
      }
      fprintf(stderr, "warm: queued %s\n", File.c_str());
    }
    if (S->backend() == sl::Session::BackendKind::Local) {
      S->drain();
      if (auto Stats = S->stats()) {
        auto KV = parseKeyValueMap(*Stats);
        long Errors = atol(KV["errors"].c_str());
        fprintf(stderr,
                "warm: done (%ld generated, %ld already cached, "
                "%ld errors)\n",
                atol(KV["generations"].c_str()),
                atol(KV["disk-hits"].c_str()) +
                    atol(KV["mem-hits"].c_str()),
                Errors);
        if (Errors > 0)
          return 1;
      }
    }
    return writeTrace() && Failures == 0 ? 0 : 1;
  }

  if (Input.empty()) {
    usage(argv[0]);
    return 1;
  }

  std::ifstream In(Input);
  if (!In) {
    return fail("cannot open " + Input);
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  if (!NameSet && !applyGenOption(Options, "func", baseName(Input), Err))
    return fail(Err);

  // Introspection flags run the Generator pipeline directly: explicit
  // variant choices, Stage-1/variant listings, and IR verification reports
  // are about *this process's* generation, not a served artifact.
  bool Legacy = ConnectAddr.empty() &&
                (!VariantStr.empty() || PrintVariants ||
                 ((PrintBasic || VerifyIr) && !MeasureSet &&
                  CacheDir.empty() && SoOut.empty()));

  if (!Legacy) {
    //===------------------------------------------------------------------===//
    // Serving path: one sl::Session, local or remote.
    //===------------------------------------------------------------------===//
    if (!ConnectAddr.empty() &&
        (!VariantStr.empty() || PrintVariants || PrintBasic || VerifyIr))
      fprintf(stderr,
              "warning: -variant/-print-basic/-print-variants/-verify-ir "
              "are local-only and ignored with -connect\n");
    if (VerifyIr && ConnectAddr.empty())
      fprintf(stderr, "warning: -verify-ir is unavailable with "
                      "-measure/-cache-dir/-so-out (the service verifies "
                      "before every compile; see cir.verify_rejected)\n");

    auto S = openSession();
    if (!S)
      return fail(S.message());
    auto R = buildRequest(Buf.str(), baseName(Input));
    if (!R)
      return fail(R.message());
    auto K = S->get(*R);
    if (!K) {
      fprintf(stderr, "%s: %s\n", Input.c_str(), K.message().c_str());
      return 1;
    }
    if (const sl::TimingBreakdown *T = K->timing())
      fprintf(stderr,
              "timing: tier=%s total-us=%ld round-trip-us=%ld "
              "(cache=%ld wait=%ld disk=%ld gen=%ld tune=%ld "
              "compile=%ld)\n",
              T->Tier.c_str(), T->TotalUs, T->RoundTripUs, T->CacheUs,
              T->WaitUs, T->DiskUs, T->GenUs, T->TuneUs, T->CompileUs);
    if (PrintBasic && ConnectAddr.empty())
      fprintf(stderr, "/* -print-basic is unavailable with "
                      "-measure/-cache-dir (cache hits skip Stage 1) */\n");

    std::string C = headerComment(Input, K->isa(), K->key(),
                                  K->staticCost(), K->measured(),
                                  K->measuredCycles()) +
                    K->cSource();
    if (!SoOut.empty()) {
      if (K->objectBytes().empty())
        return fail("no compiled shared object to save (source-only "
                    "artifact)");
      std::ofstream So(SoOut, std::ios::binary);
      So.write(K->objectBytes().data(),
               static_cast<std::streamsize>(K->objectBytes().size()));
      So.close();
      if (!So)
        return fail("cannot write " + SoOut);
      fprintf(stderr, "%s: %zu-byte shared object (%s)\n", SoOut.c_str(),
              K->objectBytes().size(),
              K->origin() == sl::Kernel::Origin::Remote ? "from daemon"
                                                        : "local JIT");
    }
    if (Output.empty()) {
      fputs(C.c_str(), stdout);
    } else {
      std::ofstream Out(Output);
      if (!Out)
        return fail("cannot write " + Output);
      Out << C;
    }
    return writeTrace() ? 0 : 1;
  }

  //===--------------------------------------------------------------------===//
  // Legacy pipeline path: explicit variants and introspection.
  //===--------------------------------------------------------------------===//
  if (!SoOut.empty())
    return fail("-so-out needs a served artifact and is unavailable with "
                "-variant/-print-variants");
  if (!VariantStr.empty() && (MeasureSet || !CacheDir.empty()))
    fprintf(stderr, "warning: -variant bypasses -measure/-cache-dir\n");

  std::string ParseErr;
  auto Program = la::compileLa(Buf.str(), ParseErr);
  if (!Program) {
    fprintf(stderr, "%s: %s\n", Input.c_str(), ParseErr.c_str());
    return 1;
  }

  Generator Gen(std::move(*Program), Options);
  if (!Gen.isValid()) {
    fprintf(stderr, "%s: %s\n", Input.c_str(), Gen.error().c_str());
    return 1;
  }

  if (PrintVariants) {
    printf("%d HLAC(s)\n", Gen.hlacCount());
    for (size_t I = 0; I < Gen.variantCounts().size(); ++I)
      printf("  hlac %zu: %d variant(s)\n", I, Gen.variantCounts()[I]);
    return 0;
  }

  std::optional<GenResult> Result;
  if (!VariantStr.empty()) {
    std::vector<int> Choice;
    std::stringstream VS(VariantStr);
    std::string Tok;
    while (std::getline(VS, Tok, ','))
      Choice.push_back(atoi(Tok.c_str()));
    Result = Gen.generate(Choice);
  } else {
    Result = Gen.best(MaxVariants);
  }
  if (!Result) {
    fprintf(stderr, "%s: generation failed (infeasible variant?)\n",
            Input.c_str());
    return 1;
  }

  if (PrintBasic)
    fprintf(stderr, "/* Stage 1 basic program:\n%s*/\n",
            Result->Basic.str().c_str());

  if (VerifyIr) {
    // The report covers the single-instance kernel and -- with -batch on a
    // vector ISA -- the scalar recompile and the widened block and tail,
    // derived exactly as emission derives them (see
    // slingen::deriveInstanceParallelFuncs). They are reported whichever
    // strategy the chooser would pick: the report is an audit surface.
    bool Clean = true;
    auto Report = [&](const cir::Function &F) {
      fputs(cir::verifyReportText(F).c_str(), stderr);
      Clean &= cir::verify(F).empty();
    };
    Report(Result->Func);
    if (Batch && Result->Func.Nu >= 2) {
      if (auto Pre = recompileScalar(*Result, &Options)) {
        Report(Pre->Func);
        if (auto IP = deriveInstanceParallelFuncs(*Result, *Pre)) {
          Report(IP->Block.Func);
          Report(IP->Tail.Func);
        }
      }
    }
    if (!Clean)
      return fail("C-IR verification failed (see report above)");
  }

  std::string C = headerComment(Input, Options.Isa->Name, "", Result->Cost,
                                false, 0.0);
  if (!Batch) {
    C += emitC(*Result);
  } else {
    // The service's resolution ladder (service::resolveBatchEmission), so
    // this path emits what a served request would.
    BatchStrategy S = StrategyName.empty()
                          ? BatchStrategy::Auto
                          : *batchStrategyByName(StrategyName);
    if (S == BatchStrategy::InstanceParallelFused && Options.Isa->Nu < 2)
      fprintf(stderr, "warning: -batch-strategy fused needs a vector ISA; "
                      "emitting the scalar loop\n");
    service::BatchChoice BC =
        service::resolveBatchEmission(*Result, Options, S);
    if (BC.Rejected)
      return fail("C-IR verification failed: " + BC.Rejected->str());
    C += BC.Source;
  }

  if (Output.empty()) {
    fputs(C.c_str(), stdout);
  } else {
    std::ofstream Out(Output);
    if (!Out) {
      return fail("cannot write " + Output);
    }
    Out << C;
  }
  return 0;
}
