//===- service/KernelService.cpp ------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/KernelService.h"

#include "isa/ISA.h"
#include "la/Lower.h"
#include "obs/EventLog.h"
#include "obs/Trace.h"
#include "runtime/BatchPool.h"
#include "service/Tuner.h"
#include "support/FaultInject.h"
#include "support/Hash.h"
#include "support/KeyValue.h"

#include <chrono>
#include <sstream>
#include <thread>

using namespace slingen;
using namespace slingen::service;

KernelService::KernelService(ServiceConfig Config)
    : Cfg(std::move(Config)), Cache(Cfg.MemCapacity, Cfg.CacheDir) {}

KernelService::~KernelService() {
  {
    std::lock_guard<std::mutex> L(PoolMu);
    PoolStopping = true;
    PrefetchQueue.clear(); // queued-but-unstarted warming dies with us
  }
  PoolCv.notify_all();
  for (auto &W : Workers)
    W.join();
}

bool KernelService::compilerUsable() const {
  return Cfg.UseCompiler && runtime::haveSystemCompiler();
}

namespace {

/// Content key of one request: (normalized program, options) fingerprint
/// with the batched bit -- and, for batched requests, the configured batch
/// strategy -- mixed in, as fixed-width hex. Pinned loop/fused requests and
/// Auto requests address distinct entries: an Auto entry's emission is the
/// per-kernel winner, not a fixed strategy.
std::string requestKey(const Generator &G, bool Batched,
                       BatchStrategy Strategy) {
  Fnv1a64 H;
  H.num(G.fingerprint());
  H.boolean(Batched);
  if (Batched)
    H.str(batchStrategyName(Strategy));
  return hexDigest(H.digest());
}

/// The service's registry metrics, resolved once (references are stable
/// for the process lifetime, so recording afterwards is lock-free).
struct ServiceMetrics {
  obs::Histogram &GetUs = obs::Registry::global().histogram("service.get.us");
  obs::Histogram &WaitUs =
      obs::Registry::global().histogram("service.flight-wait.us");
  obs::Histogram &DiskUs =
      obs::Registry::global().histogram("service.disk-load.us");
  obs::Histogram &GenUs =
      obs::Registry::global().histogram("service.generate.us");
  obs::Histogram &TuneUs =
      obs::Registry::global().histogram("service.tune.us");
  obs::Counter &TierMem = obs::Registry::global().counter("service.tier.mem");
  obs::Counter &TierDisk =
      obs::Registry::global().counter("service.tier.disk");
  obs::Counter &TierGenerated =
      obs::Registry::global().counter("service.tier.generated");
  obs::Counter &TierJoined =
      obs::Registry::global().counter("service.tier.joined");
  obs::Counter &Shed = obs::Registry::global().counter("service.shed");
  obs::Counter &DeadlineExpired =
      obs::Registry::global().counter("service.deadline_expired");
  obs::Counter &VerifyRejected =
      obs::Registry::global().counter("cir.verify_rejected");

  static ServiceMetrics &get() {
    static ServiceMetrics M;
    return M;
  }
};

} // namespace

GetResult KernelService::get(const std::string &LaSource,
                             const GenOptions &Options, bool Batched) {
  RequestOptions Req;
  Req.Batched = Batched;
  return get(LaSource, Options, Req);
}

GetResult KernelService::get(Program P, const GenOptions &Options,
                             bool Batched) {
  RequestOptions Req;
  Req.Batched = Batched;
  return get(std::move(P), Options, Req);
}

GetResult KernelService::get(const std::string &LaSource,
                             const GenOptions &Options,
                             const RequestOptions &Req) {
  std::string Err;
  auto P = la::compileLa(LaSource, Err);
  if (!P) {
    ++Errors;
    return {nullptr, "parse error: " + Err, Errc::ParseError};
  }
  return get(std::move(*P), Options, Req);
}

GetResult KernelService::get(Program P, const GenOptions &Options,
                             const RequestOptions &Req) {
  return getImpl(Generator(std::move(P), Options), Req);
}

void KernelService::prefetch(const std::string &LaSource,
                             const GenOptions &Options, RequestOptions Req) {
  std::lock_guard<std::mutex> L(PoolMu);
  if (PoolStopping)
    return;
  ++Prefetches;
  // The job re-enters get(): cache hits are cheap no-ops and misses run
  // under the same single-flight discipline as foreground requests.
  PrefetchQueue.push_back(
      [this, LaSource, Options, Req] { (void)get(LaSource, Options, Req); });
  if (Workers.size() < static_cast<size_t>(std::max(1, Cfg.PrefetchWorkers)))
    Workers.emplace_back([this] { prefetchWorker(); });
  PoolCv.notify_one();
}

void KernelService::prefetchWorker() {
  std::unique_lock<std::mutex> L(PoolMu);
  for (;;) {
    PoolCv.wait(L, [this] { return PoolStopping || !PrefetchQueue.empty(); });
    if (PoolStopping)
      return;
    auto Job = std::move(PrefetchQueue.front());
    PrefetchQueue.pop_front();
    ++ActivePrefetches;
    L.unlock();
    Job();
    L.lock();
    --ActivePrefetches;
    if (PrefetchQueue.empty() && ActivePrefetches == 0)
      IdleCv.notify_all();
  }
}

void KernelService::drainPrefetches() {
  std::unique_lock<std::mutex> L(PoolMu);
  IdleCv.wait(L, [this] {
    return PrefetchQueue.empty() && ActivePrefetches == 0;
  });
}

size_t KernelService::pendingPrefetches() const {
  std::lock_guard<std::mutex> L(PoolMu);
  return PrefetchQueue.size() + ActivePrefetches;
}

GetResult KernelService::getImpl(Generator G, const RequestOptions &Req) {
  if (!G.isValid()) {
    ++Errors;
    return {nullptr, "normalization failed: " + G.error(),
            Errc::InvalidProgram};
  }
  ServiceMetrics &M = ServiceMetrics::get();
  const int64_t StartUs = obs::nowUs();
  RequestTiming TM;
  std::string Key = requestKey(G, Req.Batched,
                               Req.Strategy.value_or(Cfg.Strategy));

  std::shared_ptr<Flight> F;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> L(FlightMu);
    obs::ScopedSpan Lookup("cache-lookup", "service");
    if (ArtifactPtr A = Cache.lookup(Key)) {
      ++MemHits;
      M.TierMem.add();
      TM.Tier = "mem";
      TM.CacheUs = Lookup.finish();
      TM.TotalUs = obs::nowUs() - StartUs;
      M.GetUs.record(TM.TotalUs);
      return {A, {}, Errc::None, std::move(TM)};
    }
    TM.CacheUs = Lookup.finish();
    // Memory tier missed: anything from here on costs real time, so a
    // request whose deadline has already passed is shed now -- nobody is
    // waiting for the answer. (A deadline expiring *mid*-wait or
    // mid-generation still runs to completion and warms the cache; only
    // work that is already pointless at admission is refused.)
    if (Req.DeadlineUs > 0 && obs::nowUs() >= Req.DeadlineUs) {
      ++DeadlineExpired;
      ++Errors;
      M.DeadlineExpired.add();
      TM.TotalUs = obs::nowUs() - StartUs;
      return {nullptr, "deadline expired before the request was admitted",
              Errc::DeadlineExceeded, std::move(TM)};
    }
    auto It = Inflight.find(Key);
    if (It != Inflight.end()) {
      F = It->second;
      ++FlightJoins;
    } else {
      F = std::make_shared<Flight>();
      F->Future = F->Promise.get_future().share();
      Inflight.emplace(Key, F);
      Leader = true;
      ++Misses;
    }
  }
  if (!Leader) {
    // Blocks until the leader publishes. The joiner's timing is its own
    // story -- the wait, not the leader's phases -- so the copied result's
    // breakdown is replaced wholesale.
    obs::ScopedSpan Wait("flight-wait", "service", &M.WaitUs);
    GetResult R = F->Future.get();
    M.TierJoined.add();
    R.Timing = std::move(TM);
    R.Timing.Tier = "joined";
    R.Timing.WaitUs = Wait.finish();
    R.Timing.TotalUs = obs::nowUs() - StartUs;
    M.GetUs.record(R.Timing.TotalUs);
    return R;
  }

  // The flight MUST be resolved on every path: an unfulfilled promise
  // would block current joiners forever and a stale Inflight entry would
  // wedge the key for all future requests.
  std::string Err;
  Errc Code = Errc::Internal;
  ArtifactPtr A;
  try {
    A = produce(Key, G, Req, Err, Code, TM);
  } catch (const std::exception &E) {
    Err = std::string("internal error: ") + E.what();
    Code = Errc::Internal;
  } catch (...) {
    Err = "internal error";
    Code = Errc::Internal;
  }
  if (TM.Tier == "disk")
    M.TierDisk.add();
  else if (A)
    M.TierGenerated.add();
  TM.TotalUs = obs::nowUs() - StartUs;
  M.GetUs.record(TM.TotalUs);
  GetResult R{A, A ? std::string() : Err, A ? Errc::None : Code, TM};
  try {
    std::lock_guard<std::mutex> L(FlightMu);
    if (A)
      Evictions += static_cast<long>(Cache.insert(A));
    else
      ++Errors;
    Inflight.erase(Key);
  } catch (...) {
    // Cache publication failed (allocation); the flight still resolves --
    // joiners get the artifact, only the memory tier misses out.
    std::lock_guard<std::mutex> L(FlightMu);
    Inflight.erase(Key);
  }
  F->Promise.set_value(R);
  return R;
}

ArtifactPtr KernelService::produce(const std::string &Key, const Generator &G,
                                   const RequestOptions &Req,
                                   std::string &Err, Errc &Code,
                                   RequestTiming &TM) {
  ServiceMetrics &M = ServiceMetrics::get();
  const GenOptions &O = G.options();
  const std::string IsaFlags = runtime::isaCompileFlags(*O.Isa);
  const bool Batched = Req.Batched;
  const bool Measure = Req.Measure.value_or(Cfg.Measure);
  bool Compile = compilerUsable();

  // Disk tier first: a complete entry skips generation entirely, and an
  // entry whose .so is missing or stale still skips generation (recompile
  // from the persisted source).
  if (Cache.hasDiskTier() && Cache.onDisk(Key)) {
    obs::ScopedSpan Disk("disk-load", "service", &M.DiskUs);
    std::string DiskErr;
    if (ArtifactPtr A = Cache.loadFromDisk(Key, DiskErr)) {
      ++DiskHits;
      TM.Tier = "disk";
      if (A->Kernel || !Compile) {
        TM.DiskUs = Disk.finish();
        return A;
      }
      auto Fresh = std::make_shared<KernelArtifact>(*A);
      runtime::CompileOptions CO;
      CO.ExtraFlags = IsaFlags;
      Cache.ensureEntryDir(Key);
      CO.KeepSoPath = Cache.soPathFor(Key);
      CO.WithBatchEntry = Batched;
      std::string CompileErr;
      ++Compilations;
      obs::ScopedSpan Cc("compile", "service");
      auto K = runtime::JitKernel::compile(Fresh->CSource, Fresh->FuncName,
                                           Fresh->NumParams, CO, CompileErr);
      TM.CompileUs += Cc.finish();
      TM.DiskUs = Disk.finish() - TM.CompileUs;
      if (!K) {
        Err = "recompile of cached entry failed: " + CompileErr;
        Code = Errc::CompileFailed;
        return nullptr;
      }
      Cache.refreshDiskEntry(Key); // the recompile grew the disk tier
      Fresh->Kernel = std::make_shared<runtime::JitKernel>(std::move(*K));
      return Fresh;
    }
  }

  // Both tiers missed: generation is the expensive phase, so this is where
  // overload and expired deadlines are shed. The admission gate caps how
  // many leaders generate concurrently (Cfg.MaxConcurrentGen); excess
  // misses fail fast with Overloaded -- the client's retry policy backs
  // off, and by then the winner's entry makes the retry a hit or a join.
  if (Req.DeadlineUs > 0 && obs::nowUs() >= Req.DeadlineUs) {
    ++DeadlineExpired;
    M.DeadlineExpired.add();
    Err = "deadline expired before generation started";
    Code = Errc::DeadlineExceeded;
    return nullptr;
  }
  struct GenGate {
    KernelService *S = nullptr;
    ~GenGate() {
      if (S) {
        std::lock_guard<std::mutex> L(S->GenMu);
        --S->ActiveGens;
      }
    }
  } Gate;
  if (Cfg.MaxConcurrentGen > 0) {
    std::lock_guard<std::mutex> L(GenMu);
    if (ActiveGens >= Cfg.MaxConcurrentGen) {
      ++Shed;
      M.Shed.add();
      Err = "service overloaded: generation capacity exhausted, retry";
      Code = Errc::Overloaded;
      return nullptr;
    }
    ++ActiveGens;
    Gate.S = this;
  }
  if (fault::anyArmed()) {
    int SlowMs = fault::paramMs("slow-generate");
    if (fault::shouldFire("slow-generate"))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(SlowMs > 0 ? SlowMs : 200));
  }

  // Generate. Measured tuning needs a compiler; otherwise (and on explicit
  // request) the static cost model ranks the variants. GenUs covers the
  // whole block, including measured variant tuning when Measure is on.
  ++Generations;
  TM.Tier = "generated";
  obs::ScopedSpan Gen("generate", "service", &M.GenUs);
  TuneOptions TO;
  TO.TopK = Cfg.TuneTopK;
  TO.MaxVariants = Cfg.MaxVariants;
  TO.Measure.Repeats = Cfg.MeasureRepeats;
  TO.ExtraFlags = IsaFlags;
  if (Cache.hasDiskTier()) {
    Cache.ensureEntryDir(Key);
    TO.KeepSoPath = Cache.soPathFor(Key);
  }
  std::optional<TuneResult> Tuned;
  if (Measure && Compile) {
    ++TunerRuns;
    Tuned = tuneKernel(G, TO, Err);
  } else {
    TuneResult Static;
    if (auto R = G.best(Cfg.MaxVariants))
      Static.Result = std::move(*R);
    else {
      Err = "generation failed (infeasible variant?)";
      Code = Errc::GenerationFailed;
      TM.GenUs = Gen.finish();
      return nullptr;
    }
    Tuned = std::move(Static);
  }
  TM.GenUs = Gen.finish();
  if (!Tuned) {
    Code = Errc::GenerationFailed;
    return nullptr;
  }

  // The verifier gate: no freshly generated C-IR reaches the JIT without
  // passing cir::verify. The tuner verifies each candidate before compiling
  // it, and resolveBatchEmission verifies a batched request's emission (the
  // kernel and the widened block and tail); this covers the rest. A
  // violation is a generator or pass bug, refused as a structured error,
  // never shipped as a kernel that could fault inside a dlopen'd object.
  // (The disk-recompile path above re-compiles persisted C source generated
  // from verified IR; there is no IR left to check there.)
  //
  // A batched request resolves its strategy and emits that TU; the artifact
  // records the strategy actually emitted. The tuner's winner is a
  // single-instance object, so only a plain request serves it as compiled.
  BatchStrategy Strat = BatchStrategy::ScalarLoop;
  int BatchThreads = 1;
  std::string CSource;
  std::optional<cir::VerifyError> Rejected = Tuned->Rejected;
  std::shared_ptr<runtime::JitKernel> Compiled;
  if (Batched && !Rejected) {
    // An auto thread policy (0) dispatches on one thread; k >= 1 pins.
    BatchThreads = std::max(Req.Threads.value_or(Cfg.BatchThreads), 1);
    obs::ScopedSpan Tune("tune-batch", "service", &M.TuneUs);
    BatchChoice BC = resolveBatchEmission(Tuned->Result, O,
                                          Req.Strategy.value_or(Cfg.Strategy));
    TM.TuneUs = Tune.finish();
    Strat = BC.Strategy;
    CSource = std::move(BC.Source);
    Rejected = std::move(BC.Rejected);
  } else if (!Rejected) {
    Compiled = std::move(Tuned->Kernel);
    if (!Compiled)
      Rejected = verifyBeforeCompile(Tuned->Result, O, /*Batched=*/false,
                                     BatchStrategy::ScalarLoop);
    CSource = emitC(Tuned->Result);
  }
  if (const std::optional<cir::VerifyError> &VE = Rejected) {
    M.VerifyRejected.add();
    obs::EventLog::global().log(
        obs::EventLog::Level::Error, obs::currentTraceId(), "verify_rejected",
        {{"fn", VE->Fn},
         {"kind", cir::verifyKindName(VE->Kind)},
         {"detail", VE->Detail},
         {"instr", std::to_string(VE->InstrIndex)}});
    Err = "C-IR verification failed: " + VE->str();
    Code = Errc::InvalidKernelIR;
    return nullptr;
  }

  auto A = std::make_shared<KernelArtifact>();
  A->Key = Key;
  A->FuncName = Tuned->Result.Func.Name;
  A->IsaName = O.Isa->Name;
  A->NumParams = static_cast<int>(Tuned->Result.Func.Params.size());
  A->Batched = Batched;
  A->Strategy = Strat;
  A->BatchThreads = BatchThreads;
  A->Choice = Tuned->Result.Choice;
  A->StaticCost = Tuned->Result.Cost;
  A->Measured = Tuned->Measured;
  A->MeasuredCycles = Tuned->MedianCycles;
  A->CSource = std::move(CSource);

  if (!Compiled && Compile) {
    // Compiled like a tuner candidate, as a provisional object beside the
    // entry, so every compile of a miss is published the same way.
    runtime::CompileOptions CO = provisionalCompileOptions(TO);
    CO.WithBatchEntry = Batched;
    std::string CompileErr;
    ++Compilations;
    obs::ScopedSpan Cc("compile", "service");
    auto K = runtime::JitKernel::compile(A->CSource, A->FuncName,
                                         A->NumParams, CO, CompileErr);
    TM.CompileUs += Cc.finish();
    if (!K) {
      Err = "generated C failed to compile: " + CompileErr;
      Code = Errc::CompileFailed;
      return nullptr;
    }
    Compiled = std::make_shared<runtime::JitKernel>(std::move(*K));
  }
  if (Compiled) {
    // Publish the provisional object as the entry's (a rename beside it),
    // never compiling the same source twice.
    std::string PublishErr;
    if (Cache.hasDiskTier() &&
        !Compiled->publish(Cache.soPathFor(Key), PublishErr)) {
      Err = PublishErr;
      Code = Errc::Internal;
      return nullptr;
    }
    A->Kernel = std::move(Compiled);
  }

  if (Cache.hasDiskTier()) {
    std::string StoreErr;
    // Persistence failure degrades to memory-only serving; the request
    // itself still succeeds.
    if (Cache.storeToDisk(*A, StoreErr) && Cfg.CacheMaxBytes > 0)
      Cache.enforceDiskBudget(Cfg.CacheMaxBytes, A->Key);
  }
  return A;
}

GetResult KernelService::dispatchBatch(const std::string &LaSource,
                                       const GenOptions &Options, int Count,
                                       double *const *Buffers,
                                       const RequestOptions &ReqIn) {
  RequestOptions Req = ReqIn;
  Req.Batched = true;
  GetResult R = get(LaSource, Options, Req);
  if (!R)
    return R;
  if (!R->isCallable()) {
    ++Errors;
    return {nullptr, "batched kernel is source-only (no compiler available)",
            Errc::NoCompiler};
  }
  const VectorISA *Isa = isaByNameOrNull(R->IsaName.c_str());
  if (!hostCanRun(Isa)) {
    ++Errors;
    return {nullptr,
            "kernel targets " + R->IsaName + ", which this host cannot run",
            Errc::NotRunnable};
  }
  // The 64-byte base-pointer contract the verifier's alignment analysis
  // assumes is checked, not asserted, at this boundary: these buffers come
  // from the caller, and a misaligned one would be UB inside the
  // aligned-move kernels.
  if (int P = R->Kernel->misalignedBatchParam(Buffers); P >= 0) {
    ++Errors;
    return {nullptr, runtime::JitKernel::misalignedBatchMessage(P),
            Errc::InvalidRequest};
  }
  // Dispatch width: per-request pin, else service pin, else the artifact's
  // recorded width.
  int Threads = Req.Threads.value_or(Cfg.BatchThreads);
  if (Threads <= 0)
    Threads = R->BatchThreads;
  obs::ScopedSpan Dispatch(
      "batch-dispatch", "service",
      &obs::Registry::global().histogram("service.batch-dispatch.us"));
  runtime::callBatchParallel(*R->Kernel, Count, Buffers, Isa->Nu, Threads);
  return R;
}

const char *service::errcName(Errc E) {
  switch (E) {
  case Errc::None:
    return "ok";
  case Errc::InvalidRequest:
    return "invalid-request";
  case Errc::ParseError:
    return "parse-error";
  case Errc::InvalidProgram:
    return "invalid-program";
  case Errc::GenerationFailed:
    return "generation-failed";
  case Errc::CompileFailed:
    return "compile-failed";
  case Errc::NoCompiler:
    return "no-compiler";
  case Errc::NotRunnable:
    return "not-runnable";
  case Errc::Overloaded:
    return "overloaded";
  case Errc::DeadlineExceeded:
    return "deadline-exceeded";
  case Errc::InvalidKernelIR:
    return "invalid-kernel-ir";
  case Errc::Internal:
    return "internal";
  }
  return "internal";
}

std::optional<Errc> service::errcByName(const std::string &Name) {
  for (Errc E : {Errc::None, Errc::InvalidRequest, Errc::ParseError,
                 Errc::InvalidProgram, Errc::GenerationFailed,
                 Errc::CompileFailed, Errc::NoCompiler, Errc::NotRunnable,
                 Errc::Overloaded, Errc::DeadlineExceeded,
                 Errc::InvalidKernelIR, Errc::Internal})
    if (Name == errcName(E))
      return E;
  return std::nullopt;
}

ServiceStats KernelService::stats() const {
  ServiceStats S;
  S.MemHits = MemHits.load();
  S.DiskHits = DiskHits.load();
  S.Misses = Misses.load();
  S.FlightJoins = FlightJoins.load();
  S.Generations = Generations.load();
  S.Compilations = Compilations.load();
  S.TunerRuns = TunerRuns.load();
  S.Evictions = Evictions.load();
  S.Errors = Errors.load();
  S.Prefetches = Prefetches.load();
  S.DiskScans = static_cast<long>(Cache.diskScans());
  S.DiskEvictions = Cache.diskEvictions();
  S.MemEntries = static_cast<long>(Cache.size());
  S.DiskEntries = static_cast<long>(Cache.diskEntries());
  S.DiskBytes = Cache.diskBytes();
  S.Shed = Shed.load();
  S.DeadlineExpired = DeadlineExpired.load();
  S.Quarantined = Cache.quarantined();
  return S;
}

std::string service::serializeServiceStats(const ServiceStats &S) {
  std::stringstream SS;
  SS << "mem-hits=" << S.MemHits << "\n";
  SS << "disk-hits=" << S.DiskHits << "\n";
  SS << "misses=" << S.Misses << "\n";
  SS << "flight-joins=" << S.FlightJoins << "\n";
  SS << "generations=" << S.Generations << "\n";
  SS << "compilations=" << S.Compilations << "\n";
  SS << "tuner-runs=" << S.TunerRuns << "\n";
  SS << "evictions=" << S.Evictions << "\n";
  SS << "errors=" << S.Errors << "\n";
  SS << "prefetches=" << S.Prefetches << "\n";
  SS << "disk-scans=" << S.DiskScans << "\n";
  SS << "disk-evictions=" << S.DiskEvictions << "\n";
  SS << "mem-entries=" << S.MemEntries << "\n";
  SS << "disk-entries=" << S.DiskEntries << "\n";
  SS << "disk-bytes=" << S.DiskBytes << "\n";
  SS << "shed=" << S.Shed << "\n";
  SS << "deadline-expired=" << S.DeadlineExpired << "\n";
  SS << "quarantined=" << S.Quarantined << "\n";
  return SS.str();
}

//===----------------------------------------------------------------------===//
// ServiceConfig (de)serialization -- the sld/slc flag parsers and the wire
// protocol all speak this one key set.
//===----------------------------------------------------------------------===//

namespace {

bool parseLong(const std::string &Value, long &Out) {
  if (Value.empty())
    return false;
  for (char C : Value)
    if (!isdigit(static_cast<unsigned char>(C)))
      return false;
  Out = atol(Value.c_str());
  return true;
}

bool parseConfigInt(const std::string &Value, int &Out) {
  long L;
  if (!parseLong(Value, L))
    return false;
  Out = static_cast<int>(L);
  return true;
}

bool parseConfigBool(const std::string &Value, bool &Out) {
  if (Value == "0" || Value == "false") {
    Out = false;
    return true;
  }
  if (Value == "1" || Value == "true") {
    Out = true;
    return true;
  }
  return false;
}

} // namespace

std::string service::serializeServiceConfig(const ServiceConfig &C) {
  std::stringstream SS;
  SS << "mem-capacity=" << C.MemCapacity << "\n";
  SS << "cache-dir=" << C.CacheDir << "\n";
  SS << "measure=" << (C.Measure ? 1 : 0) << "\n";
  SS << "tune-topk=" << C.TuneTopK << "\n";
  SS << "max-variants=" << C.MaxVariants << "\n";
  SS << "measure-repeats=" << C.MeasureRepeats << "\n";
  SS << "strategy=" << batchStrategyName(C.Strategy) << "\n";
  SS << "batch-threads=" << C.BatchThreads << "\n";
  SS << "cache-max-bytes=" << C.CacheMaxBytes << "\n";
  SS << "use-compiler=" << (C.UseCompiler ? 1 : 0) << "\n";
  SS << "prefetch-workers=" << C.PrefetchWorkers << "\n";
  SS << "max-concurrent-gen=" << C.MaxConcurrentGen << "\n";
  return SS.str();
}

bool service::applyServiceConfigOption(ServiceConfig &C,
                                       const std::string &Key,
                                       const std::string &Value,
                                       std::string &Err) {
  auto BadValue = [&] {
    Err = "bad value '" + Value + "' for option " + Key;
    return false;
  };
  if (Key == "mem-capacity") {
    long L;
    if (!parseLong(Value, L) || L <= 0)
      return BadValue();
    C.MemCapacity = static_cast<size_t>(L);
    return true;
  }
  if (Key == "cache-dir") {
    C.CacheDir = Value;
    return true;
  }
  if (Key == "measure")
    return parseConfigBool(Value, C.Measure) || BadValue();
  if (Key == "tune-topk")
    return parseConfigInt(Value, C.TuneTopK) || BadValue();
  if (Key == "max-variants")
    return parseConfigInt(Value, C.MaxVariants) || BadValue();
  if (Key == "measure-repeats")
    return parseConfigInt(Value, C.MeasureRepeats) || BadValue();
  if (Key == "strategy") {
    auto S = batchStrategyByName(Value);
    if (!S) {
      Err = "bad value '" + Value + "' for option strategy "
            "(loop, fused, or auto)";
      return false;
    }
    C.Strategy = *S;
    return true;
  }
  if (Key == "batch-threads") {
    // 0 = auto (one thread); k >= 1 pins the dispatch width. The 1024
    // ceiling matches the wire protocol's validation bound -- a wider
    // value would persist fine locally and then make the entry
    // undecodable for remote clients.
    long L;
    if (!parseLong(Value, L) || L < 0 || L > 1024)
      return BadValue();
    C.BatchThreads = static_cast<int>(L);
    return true;
  }
  if (Key == "cache-max-bytes") {
    long L;
    if (!parseLong(Value, L) || L < 0)
      return BadValue();
    C.CacheMaxBytes = L;
    return true;
  }
  if (Key == "use-compiler")
    return parseConfigBool(Value, C.UseCompiler) || BadValue();
  if (Key == "prefetch-workers")
    return parseConfigInt(Value, C.PrefetchWorkers) || BadValue();
  if (Key == "max-concurrent-gen") {
    long L;
    if (!parseLong(Value, L) || L < 0)
      return BadValue();
    C.MaxConcurrentGen = static_cast<int>(L);
    return true;
  }
  Err = "unknown option '" + Key + "'";
  return false;
}

bool service::deserializeServiceConfig(const std::string &Text,
                                       ServiceConfig &C, std::string &Err) {
  for (auto &KV : parseKeyValueLines(Text))
    if (!applyServiceConfigOption(C, KV.first, KV.second, Err))
      return false;
  return true;
}
