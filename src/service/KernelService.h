//===- service/KernelService.h - cached, measured kernel serving ----------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelService turns the one-shot SLinGen generator into a serving
/// runtime. A request names an LA program (source text or a lowered
/// Program) plus GenOptions; the service answers with an immutable
/// KernelArtifact -- emitted C, provenance, and a loaded, callable kernel
/// when a compiler is available. Three mechanisms make repeated and
/// concurrent traffic cheap:
///
///   caching        artifacts are content-addressed by a stable hash of the
///                  *normalized* program + options + ISA and served from a
///                  thread-safe in-memory LRU, backed by an optional disk
///                  tier that survives the process (see KernelCache).
///   single-flight  N threads missing on the same key trigger exactly one
///                  generate+compile; the rest block on a shared future and
///                  receive the same artifact.
///   measured tuning  with Config.Measure the top-K enumerated variants are
///                  JIT-compiled and timed (median of k), and the winning
///                  choice vector is persisted with the cache entry; where
///                  measurement is impossible the static cost model ranks
///                  (see Tuner).
///
/// Batched requests (Batched=true, the paper's Sec. 5 extension) are cached
/// under their own key and dispatch `count` independent problem instances
/// through the `<func>_batch` entry point in one call.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SERVICE_KERNELSERVICE_H
#define SLINGEN_SERVICE_KERNELSERVICE_H

#include "service/KernelCache.h"
#include "slingen/SLinGen.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace slingen {
namespace service {

struct ServiceConfig {
  /// Memory-tier LRU capacity (loaded kernels kept hot).
  size_t MemCapacity = 64;
  /// Disk-tier directory; empty disables persistence.
  std::string CacheDir;
  /// Rank variants by measurement instead of the static model alone.
  bool Measure = false;
  int TuneTopK = 4;       ///< candidates measured when Measure is set
  int MaxVariants = 16;   ///< variant enumeration budget
  int MeasureRepeats = 9; ///< timed runs per candidate (median taken)
  /// Batched-request codegen strategy (see slingen::BatchStrategy). Auto
  /// resolves per kernel by the static cost model, with nothing compiled or
  /// timed (see resolveBatchEmission), and the resolution is persisted in
  /// the disk tier's .meta. InstanceParallelFused degrades to ScalarLoop on
  /// scalar targets and when widening fails.
  BatchStrategy Strategy = BatchStrategy::Auto;
  /// Batched dispatch width policy. 0 (auto): a batched miss records width
  /// 1, and every dispatchBatch uses the artifact's persisted width. >= 1:
  /// pinned -- produce records it, dispatch uses it. Threading is dispatch
  /// metadata: it never changes the emitted C or the cache key.
  int BatchThreads = 0;
  /// Size budget for the disk tier in bytes; 0 disables GC. After every
  /// store whole entries (.c/.so/.meta groups) are evicted
  /// oldest-mtime-first until the total fits (the entry just stored is
  /// never evicted). The tier is scanned once, on the first enforcement;
  /// later stores update an in-process size index and cost O(evicted)
  /// (see KernelCache::enforceDiskBudget).
  long CacheMaxBytes = 0;
  /// Master switch for the C compiler. Off: the service serves source-only
  /// artifacts and tuning falls back to the static model (also what
  /// happens when no system compiler exists).
  bool UseCompiler = true;
  /// Background threads servicing prefetch() (started lazily on the first
  /// prefetch, so non-warming services pay nothing).
  int PrefetchWorkers = 2;
  /// Generation-admission cap: at most this many cache misses generate
  /// concurrently; excess misses are shed immediately with
  /// Errc::Overloaded (cache hits and single-flight joins are always
  /// served, and the shed is retry-safe -- the client backs off and the
  /// winner's entry turns the retry into a hit or a join). 0 = unlimited.
  int MaxConcurrentGen = 0;
};

/// Serializes every ServiceConfig field to `key=value` lines (fixed order).
/// Keys: mem-capacity, cache-dir, measure, tune-topk, max-variants,
/// measure-repeats, strategy, batch-threads, cache-max-bytes,
/// use-compiler, prefetch-workers, max-concurrent-gen.
std::string serializeServiceConfig(const ServiceConfig &C);

/// Applies one `key=value` setting to \p C. Returns false (with \p Err) on
/// an unknown key or a malformed value. The slc/sld flag parsers and
/// deserializeServiceConfig() both funnel through here.
bool applyServiceConfigOption(ServiceConfig &C, const std::string &Key,
                              const std::string &Value, std::string &Err);

/// Applies every line of a serializeServiceConfig() document on top of \p C.
bool deserializeServiceConfig(const std::string &Text, ServiceConfig &C,
                              std::string &Err);

/// Per-request knobs riding alongside GenOptions: the batched bit plus
/// optional overrides of the service-wide defaults. Unset optionals fall
/// back to ServiceConfig -- this is how one daemon serves clients that pin
/// different batch strategies or ask for measured tuning.
struct RequestOptions {
  bool Batched = false;
  /// Overrides Config.Strategy. Part of the cache key (for batched
  /// requests), exactly as the config value is.
  std::optional<BatchStrategy> Strategy;
  /// Overrides Config.Measure -- a *produce-time* policy, deliberately
  /// not part of the cache key (matching service-wide Measure: services
  /// with different Measure settings sharing a disk tier also share
  /// entries, first producer wins). An already-cached key is served as-is;
  /// the override only governs how a miss is generated. Check
  /// KernelArtifact::Measured to see what a served artifact actually got.
  std::optional<bool> Measure;
  /// Overrides Config.BatchThreads (same 0 = auto / >= 1 = pinned
  /// semantics). Like Measure a produce-time policy outside the cache key
  /// -- an already-cached artifact keeps its persisted width -- but it
  /// also pins the dispatch width of this request's dispatchBatch call.
  std::optional<int> Threads;
  /// Absolute deadline as an obs::nowUs() stamp; 0 = none. A request whose
  /// deadline has already expired when it would start (or resume) work is
  /// shed with Errc::DeadlineExceeded instead of burning generation time
  /// nobody is waiting for. Cache hits are always served -- the lookup is
  /// cheaper than the check would be worth.
  long DeadlineUs = 0;
};

/// Counter snapshot for observability and test instrumentation.
struct ServiceStats {
  long MemHits = 0;      ///< served from the in-memory LRU
  long DiskHits = 0;     ///< served from the disk tier
  long Misses = 0;       ///< neither tier had the key
  long FlightJoins = 0;  ///< requests that piggybacked on an in-flight miss
  long Generations = 0;  ///< times the generator pipeline actually ran
  /// Compiler runs on the serving path: produce()'s compile of a served
  /// translation unit and disk-tier recompiles. Tuner candidates are not
  /// counted -- not even the winner a measured miss serves as compiled
  /// (see TunerRuns) -- and neither are precompiled-header builds
  /// (`runtime.pch-builds`).
  long Compilations = 0;
  long TunerRuns = 0;    ///< measured-tuning sessions
  long Evictions = 0;    ///< memory-tier LRU evictions
  long Errors = 0;       ///< failed requests
  long Prefetches = 0;   ///< prefetch() jobs accepted
  // Cache-tier gauges + disk GC counters (see KernelCache): sampled at
  // stats() time rather than counted here.
  long DiskScans = 0;     ///< full disk-tier scans (stays 1 under GC)
  long DiskEvictions = 0; ///< disk-tier entries evicted by the byte budget
  long MemEntries = 0;    ///< memory-tier occupancy now
  long DiskEntries = 0;   ///< disk-tier entries now (0 without a tier)
  long DiskBytes = 0;     ///< disk-tier total bytes now
  // Resilience counters (PR 7): also counted into Errors.
  long Shed = 0;            ///< misses rejected by the generation cap
  long DeadlineExpired = 0; ///< requests shed because their deadline passed
  long Quarantined = 0;     ///< corrupt disk entries quarantined (.bad)
};

/// stats() as `key=value` lines (the wire protocol's STATS payload).
std::string serializeServiceStats(const ServiceStats &S);

/// Per-request phase breakdown, recorded by every get(): where the answer
/// came from and how long each serving phase took, in wall microseconds.
/// Phases that did not run stay 0 (a memory hit has only CacheUs; only
/// joiners have WaitUs). This is what the wire protocol ships to clients
/// that ask for it (net::ArtifactMsg::Timing) and what
/// sl::Kernel::timing() surfaces.
struct RequestTiming {
  /// Which tier answered: "mem", "disk", "generated", or "joined"
  /// (piggybacked on another request's in-flight generation). Empty on
  /// requests that failed before tier resolution.
  std::string Tier;
  long CacheUs = 0;   ///< memory-tier lookup (under the flight lock)
  long WaitUs = 0;    ///< single-flight wait for the leader's result
  long DiskUs = 0;    ///< disk-tier probe + load (+ recompile if stale .so)
  long GenUs = 0;     ///< generator pipeline incl. measured variant tuning
  long TuneUs = 0;    ///< batch-strategy resolution and batched emission
  long CompileUs = 0; ///< serving-path compiles (see Compilations)
  long TotalUs = 0;   ///< whole get(), end to end
};

/// What failed, when a request fails. One stable code per failure class,
/// so callers (the client facade, the wire protocol) can branch without
/// parsing message strings; the codes round-trip over the sld protocol as
/// errcName() tokens prefixed to ERR payloads.
enum class Errc {
  None = 0,         ///< no error
  InvalidRequest,   ///< malformed options/overrides (pre-generation)
  ParseError,       ///< the LA source did not parse
  InvalidProgram,   ///< parsed but failed normalization
  GenerationFailed, ///< no variant could be generated
  CompileFailed,    ///< the generated C did not compile
  NoCompiler,       ///< a callable kernel was required, none available
  NotRunnable,      ///< kernel ISA wider than this host
  Internal,         ///< unexpected failure inside the service
  Overloaded,       ///< shed under load; safe to retry after backoff
  DeadlineExceeded, ///< the request's deadline expired; retrying is futile
  InvalidKernelIR,  ///< generated C-IR failed static verification; the
                    ///< service refuses to JIT-compile it (cir/Verify.h)
};

/// Stable kebab-case token for \p E ("parse-error", ...); the wire
/// protocol's error-code vocabulary.
const char *errcName(Errc E);
/// Inverse of errcName; std::nullopt on unknown tokens.
std::optional<Errc> errcByName(const std::string &Name);

/// get() outcome: an artifact or an error code + message.
struct GetResult {
  ArtifactPtr Kernel;
  std::string Error;
  Errc Code = Errc::None;
  /// Phase breakdown of this request (joiners see their own wait, not the
  /// leader's phases; see getImpl).
  RequestTiming Timing;

  explicit operator bool() const { return Kernel != nullptr; }
  const KernelArtifact *operator->() const { return Kernel.get(); }
  const KernelArtifact &operator*() const { return *Kernel; }
};

class KernelService {
public:
  explicit KernelService(ServiceConfig Config = {});
  ~KernelService();

  KernelService(const KernelService &) = delete;
  KernelService &operator=(const KernelService &) = delete;

  /// Serves the kernel for LA source text \p LaSource under \p Options.
  /// Parsing + normalization always run (they define the cache key); HLAC
  /// expansion, tiling, the pass pipeline, and the C compiler only run on a
  /// miss. Safe to call from many threads.
  GetResult get(const std::string &LaSource, const GenOptions &Options,
                bool Batched = false);

  /// As above for an already-lowered program.
  GetResult get(Program P, const GenOptions &Options, bool Batched = false);

  /// get() with per-request overrides (see RequestOptions). A request
  /// pinning a batch strategy addresses the same cache entry a service
  /// configured with that strategy would.
  GetResult get(const std::string &LaSource, const GenOptions &Options,
                const RequestOptions &Req);
  GetResult get(Program P, const GenOptions &Options,
                const RequestOptions &Req);

  /// Asynchronous warming: queues a generate+compile for the request on the
  /// background worker pool and returns immediately. A later get() for the
  /// same key is a cache hit (or joins the in-flight generation -- the pool
  /// funnels into the same single-flight path, so a prefetch racing a live
  /// request never duplicates work). Failures are absorbed into the Errors
  /// counter; warming is best-effort by design.
  void prefetch(const std::string &LaSource, const GenOptions &Options,
                RequestOptions Req = {});

  /// Blocks until every queued prefetch has finished (daemon shutdown and
  /// deterministic tests).
  void drainPrefetches();

  /// Queued-but-unfinished prefetch jobs.
  size_t pendingPrefetches() const;

  /// Batch dispatch (paper Sec. 5): obtains the batched kernel for
  /// \p LaSource and applies it to \p Count contiguous instances per
  /// parameter (instance b of parameter i at Buffers[i] + b*Rows_i*Cols_i).
  /// Runs on at most the effective dispatch width of threads --
  /// Req.Threads, else Config.BatchThreads, else the artifact's recorded
  /// BatchThreads: blocks go to the batch thread pool only when that width
  /// exceeds 1 and the batch's projected work reaches the pool's
  /// break-even (see runtime/BatchPool.h callBatchParallel). Fails when no
  /// compiler is available or the kernel's ISA cannot run on this host.
  GetResult dispatchBatch(const std::string &LaSource,
                          const GenOptions &Options, int Count,
                          double *const *Buffers,
                          const RequestOptions &Req = {});

  ServiceStats stats() const;
  const ServiceConfig &config() const { return Cfg; }

  /// Memory-tier occupancy (for tests and monitoring).
  size_t cachedKernels() const { return Cache.size(); }

private:
  struct Flight {
    std::promise<GetResult> Promise;
    std::shared_future<GetResult> Future;
  };

  GetResult getImpl(Generator G, const RequestOptions &Req);
  ArtifactPtr produce(const std::string &Key, const Generator &G,
                      const RequestOptions &Req, std::string &Err,
                      Errc &Code, RequestTiming &TM);
  bool compilerUsable() const;
  void prefetchWorker();

  ServiceConfig Cfg;
  KernelCache Cache;

  std::mutex FlightMu;
  std::unordered_map<std::string, std::shared_ptr<Flight>> Inflight;

  // Prefetch worker pool: lazily started, torn down by the destructor.
  mutable std::mutex PoolMu;
  std::condition_variable PoolCv;   ///< wakes workers on enqueue/stop
  std::condition_variable IdleCv;   ///< wakes drainPrefetches on completion
  std::deque<std::function<void()>> PrefetchQueue;
  std::vector<std::thread> Workers;
  size_t ActivePrefetches = 0;
  bool PoolStopping = false;

  // Generation-admission gate (Cfg.MaxConcurrentGen): counts leaders
  // inside produce()'s generate phase; excess misses shed immediately.
  std::mutex GenMu;
  int ActiveGens = 0;

  mutable std::atomic<long> MemHits{0}, DiskHits{0}, Misses{0},
      FlightJoins{0}, Generations{0}, Compilations{0}, TunerRuns{0},
      Evictions{0}, Errors{0}, Prefetches{0}, Shed{0}, DeadlineExpired{0};
};

} // namespace service
} // namespace slingen

#endif // SLINGEN_SERVICE_KERNELSERVICE_H
