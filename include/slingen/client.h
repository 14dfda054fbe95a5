//===- slingen/client.h - the public SLinGen client API -------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one front door to the kernel-serving system. Everything a program
/// needs to obtain and run generated linear-algebra kernels lives behind
/// three types -- no internal header required, no knowledge of whether the
/// kernel is JIT-compiled in-process or shipped from a daemon:
///
///   sl::Session  a connection to a kernel source, resolved from one
///                address string (grammar below). Owns a pluggable backend:
///                an in-process KernelService (`local:`), a remote sld
///                daemon over a socket (`unix:`/`tcp:`), or a fallback pair
///                that prefers the daemon and degrades to local on
///                transport failures (`auto:`).
///   sl::RequestBuilder  a fluent, validated description of one kernel
///                request: LA source, codegen options, the batched bit and
///                its strategy/threads knobs, measured tuning.
///   sl::Kernel   the served artifact: typed call()/callBatch() entry
///                points plus full provenance (cache key, emitted C,
///                choice vector, tuning data, compiled object bytes). A
///                Kernel behaves identically whether its shared object was
///                compiled locally or received over the wire.
///
/// Errors are values, not `bool + std::string&` out-params: every
/// operation returns an sl::Status or sl::Result<T> carrying one stable
/// sl::Code plus a message. The codes round-trip through the sld wire
/// protocol, so a daemon-side parse error surfaces as Code::ParseError on
/// the client exactly as a local one would.
///
/// Address grammar (Session::open):
///
///   "local:"            in-process service, memory cache only
///   "local:<dir>"       in-process service with a disk cache at <dir>
///   "unix:<path>"       sld daemon on a Unix-domain socket
///   "tcp:<host>:<port>" sld daemon on loopback TCP
///   "<path with '/'>"   shorthand for unix:<path>
///   "<host>:<port>"     shorthand for tcp:<host>:<port>
///   "auto:<remote>"     try the daemon at <remote>; on connect/transport
///                       failure serve from a lazily created local service
///                       (daemon errors about the request itself do NOT
///                       fall back -- they would only repeat locally)
///
/// Error codes:
///
///   code               meaning
///   ----------------   ----------------------------------------------
///   InvalidRequest     builder misuse or a bad option/strategy value
///   ParseError         the LA source did not parse
///   GenerationFailed   no algorithmic variant could be generated
///   CompileFailed      the generated C did not compile
///   NoCompiler         a callable kernel was needed, none available
///   NotRunnable        the kernel's ISA is wider than this host
///   InvalidKernelIR    the serving side generated IR that failed its
///                      static verifier and refused to compile it (a
///                      generator bug surfaced safely, not a bad request)
///   ConnectFailed      the daemon could not be reached at all
///   TransportError     the connection died mid-request (reconnect failed)
///   ProtocolError      the peer sent frames this client cannot decode
///   Overloaded         the serving side shed the request; retry after
///                      backoff (the session's retry policy already did,
///                      so seeing this means the budget ran out)
///   DeadlineExceeded   the deadlineMs() budget expired; retrying is
///                      futile unless the caller grants more time
///   InternalError      unexpected failure inside the stack
///
/// Retry-safe classes: ConnectFailed, TransportError, and Overloaded are
/// the only codes the session retries on its own (SessionConfig::
/// MaxRetries, exponential backoff with jitter). Everything else is a
/// verdict on the request itself and is returned immediately.
///
/// Minimal use:
///
/// \code
///   auto S = sl::Session::open("auto:/tmp/sld.sock");
///   if (!S) return fail(S.status());
///   auto R = sl::RequestBuilder()
///                .source(laText)
///                .name("potrf8")
///                .isa("avx")
///                .build();
///   auto K = S->get(*R);
///   if (!K) return fail(K.status());
///   double *bufs[2] = {a, x};
///   K->call(bufs);
/// \endcode
///
/// This header is self-contained (standard library only) and is what
/// `cmake --install` exports; link against libslingen.a.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CLIENT_H
#define SLINGEN_CLIENT_H

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace slingen {
namespace client {

//===----------------------------------------------------------------------===//
// Status and Result
//===----------------------------------------------------------------------===//

/// Stable error classes of the client API (table in the file comment).
enum class Code {
  Ok = 0,
  InvalidRequest,
  ParseError,
  GenerationFailed,
  CompileFailed,
  NoCompiler,
  NotRunnable,
  InvalidKernelIR,
  ConnectFailed,
  TransportError,
  ProtocolError,
  Overloaded,
  DeadlineExceeded,
  InternalError,
};

/// Stable kebab-case name of \p C ("parse-error", ...).
const char *codeName(Code C);

/// The outcome of an operation with no payload: Ok, or a Code + message.
class Status {
public:
  Status() = default; ///< Ok
  static Status success() { return Status(); }
  static Status failure(Code C, std::string Message) {
    assert(C != Code::Ok && "failure() needs a non-Ok code");
    Status S;
    S.C = C;
    S.Msg = std::move(Message);
    return S;
  }

  bool ok() const { return C == Code::Ok; }
  explicit operator bool() const { return ok(); }
  Code code() const { return C; }
  const std::string &message() const { return Msg; }
  /// "parse-error: unexpected token ..." (or "ok").
  std::string str() const {
    return ok() ? "ok" : std::string(codeName(C)) + ": " + Msg;
  }

private:
  Code C = Code::Ok;
  std::string Msg;
};

/// A value or a failure Status. Converts implicitly from either, so
/// functions mix `return Status::failure(...)` and `return value` freely.
template <typename T> class Result {
public:
  Result(Status S) : St(std::move(S)) {
    assert(!St.ok() && "a successful Result needs a value");
  }
  Result(T Value) : Val(std::move(Value)) {}

  bool ok() const { return St.ok(); }
  explicit operator bool() const { return ok(); }
  const Status &status() const { return St; }
  Code code() const { return St.code(); }
  const std::string &message() const { return St.message(); }

  T &value() {
    assert(ok() && "value() on a failed Result");
    return *Val;
  }
  const T &value() const {
    assert(ok() && "value() on a failed Result");
    return *Val;
  }
  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

private:
  Status St;
  std::optional<T> Val;
};

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// One validated kernel request, produced by RequestBuilder::build().
/// Immutable; reusable across sessions and calls.
class Request {
public:
  Request() = default;

  const std::string &source() const { return Source; }
  /// The canonical serialized GenOptions document the request carries
  /// (what a daemon receives verbatim).
  const std::string &optionsText() const { return OptionsText; }
  const std::string &functionName() const { return FuncName; }
  bool batched() const { return Batched; }
  /// "loop"/"fused"/"auto"; empty defers to the serving side.
  const std::string &strategy() const { return StrategyName; }
  /// Batched dispatch width: 0 defers to the serving side's policy (1
  /// thread unless the service pins a width).
  int threads() const { return Threads; }
  /// Measured-tuning override: -1 defers, 0/1 force.
  int measure() const { return Measure; }
  /// Whether the compiled object bytes should be materialized on the
  /// returned Kernel (Kernel::objectBytes).
  bool wantObject() const { return WantObject; }
  /// Whether the serving side was asked to attach its per-phase timing
  /// breakdown to the returned Kernel (Kernel::timing()).
  bool wantTiming() const { return WantTiming; }
  /// Total time budget for one get() of this request in milliseconds
  /// (0 = none). Covers everything: queueing, generation, compilation,
  /// the wire, and any automatic retries.
  int deadlineMs() const { return DeadlineMs; }

private:
  friend class RequestBuilder;
  std::string Source, OptionsText, FuncName, StrategyName;
  bool Batched = false;
  int Threads = 0;
  int Measure = -1;
  bool WantObject = true;
  bool WantTiming = false;
  int DeadlineMs = 0;
};

/// Fluent request construction. Every setter returns *this; build()
/// validates the whole request at once (unknown ISA names, malformed
/// option values, strategy/threads without batched, ...) and returns
/// either the immutable Request or Code::InvalidRequest.
class RequestBuilder {
public:
  RequestBuilder();

  /// The LA program text. Exactly one of source()/sourceFile() is
  /// required.
  RequestBuilder &source(std::string LaText);
  /// Reads the LA program from \p Path at build() time.
  RequestBuilder &sourceFile(std::string Path);
  /// Generated function name (GenOptions "func").
  RequestBuilder &name(std::string FuncName);
  /// Target ISA: scalar | sse2 | avx | avx512 (GenOptions "isa").
  RequestBuilder &isa(std::string IsaName);
  /// Any GenOptions key=value (see slingen/OptionsIO.h for the key set);
  /// the named setters above are sugar for these.
  RequestBuilder &option(std::string Key, std::string Value);
  /// Also request the `<name>_batch(int count, ...)` entry point.
  RequestBuilder &batched(bool On = true);
  /// Batched iteration strategy: loop | fused | auto. Requires
  /// batched().
  RequestBuilder &strategy(std::string Name);
  /// Batched dispatch width (0 = serving side's policy, which resolves an
  /// auto policy to 1 thread; k >= 1 pins). A pinned k means at most k
  /// threads: a batch whose projected single-thread work is below the
  /// pool's measured break-even (README "Batch multithreading") runs on
  /// the calling thread alone. Requires batched().
  RequestBuilder &threads(int K);
  /// Rank variants by measured cycles instead of the static cost model
  /// (produce-time policy; an already-cached kernel is served as-is).
  RequestBuilder &measure(bool On = true);
  /// Materialize the compiled object bytes on the Kernel (default on;
  /// turn off to skip shipping/reading the .so when only the C matters).
  RequestBuilder &wantObject(bool On);
  /// Attach the serving side's per-phase timing breakdown to the Kernel
  /// (Kernel::timing()). Costs a few dozen bytes on remote responses,
  /// plus the daemon's span list for the request.
  RequestBuilder &wantTiming(bool On = true);
  /// Bound each get() of this request to \p Ms milliseconds end to end
  /// (0 = no deadline). The budget is enforced client-side -- a stalled
  /// daemon fails the request with Code::DeadlineExceeded in bounded time
  /// -- and shipped to the daemon, which sheds work whose deadline already
  /// expired instead of generating a kernel nobody is waiting for.
  RequestBuilder &deadlineMs(int Ms);

  /// Validates and freezes the request.
  Result<Request> build() const;

private:
  std::string Source, SourceFile, StrategyName;
  std::vector<std::pair<std::string, std::string>> Options;
  bool Batched = false;
  int Threads = 0;
  int Measure = -1;
  bool WantObject = true;
  bool WantTiming = false;
  int DeadlineMs = 0;
};

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

/// Where one get() spent its time: the serving side's per-phase breakdown
/// plus the client-measured round trip. All durations are microseconds;
/// a phase that did not run reports 0. Tier names how the request
/// resolved -- "mem" (memory-cache hit), "disk" (loaded from the disk
/// tier), "generated" (full produce), "joined" (coalesced onto another
/// caller's in-flight production of the same kernel).
struct TimingBreakdown {
  std::string Tier;
  long CacheUs = 0;   ///< memory-cache lookup
  long WaitUs = 0;    ///< time spent joined onto another request's work
  long DiskUs = 0;    ///< disk-tier probe/load (excluding any recompile)
  long GenUs = 0;     ///< generation: parse, variants, tuning, emission
  long TuneUs = 0;    ///< batch-strategy resolution and batched emission
  long CompileUs = 0; ///< C compilation (JIT) time
  long TotalUs = 0;   ///< serving side's end-to-end time
  /// Wall time of the whole get() as seen by this client -- the only
  /// field measured client-side. RoundTripUs - TotalUs approximates
  /// wire + queueing cost for remote sessions.
  long RoundTripUs = 0;
};

//===----------------------------------------------------------------------===//
// Kernels
//===----------------------------------------------------------------------===//

namespace detail {
struct KernelState;
struct KernelFactory;
} // namespace detail

/// A served kernel: provenance plus typed dispatch. Cheap shared handle --
/// copies refer to the same immutable state, and the loaded shared object
/// stays mapped for as long as any handle (or in-flight call) needs it.
class Kernel {
public:
  /// Where the shared object came from. Provenance only: call() and
  /// callBatch() behave identically for both.
  enum class Origin { Local, Remote };

  Kernel() = default; ///< empty handle; valid() is false

  bool valid() const { return S != nullptr; }
  Origin origin() const;

  //===--- provenance -----------------------------------------------------===//

  /// 16-hex content key (the cache/wire identity of this kernel).
  const std::string &key() const;
  const std::string &functionName() const;
  const std::string &isa() const;
  /// The full emitted C translation unit.
  const std::string &cSource() const;
  int numParams() const;
  bool batched() const;
  /// Resolved batch strategy name ("loop"/"fused"); empty when not
  /// batched.
  const std::string &strategy() const;
  /// Resolved batched dispatch width (>= 1; meaningful when batched()).
  int batchThreads() const;
  long staticCost() const;
  bool measured() const;
  double measuredCycles() const;
  /// The compiled shared object, byte for byte; empty when the kernel is
  /// source-only or the request said wantObject(false). Identical bytes
  /// for the same request whether served locally or by a daemon.
  const std::string &objectBytes() const;
  /// Phase breakdown of the get() that produced this handle, or null when
  /// the request did not ask (wantTiming()). A property of that one
  /// request, not of the kernel: a second get() of the same source returns
  /// a fresh handle whose breakdown reports the (faster) cache hit.
  const TimingBreakdown *timing() const;

  //===--- dispatch -------------------------------------------------------===//

  /// True when a loaded, executable object is attached (a kernel can be
  /// source-only: no compiler on the serving side; and a remote kernel's
  /// object for an ISA this host cannot run is never loaded).
  bool callable() const;
  /// True when this host can execute the kernel's target ISA (false for
  /// an ISA name this build does not know).
  bool hostRunnable() const;

  /// Single-instance dispatch: Buffers[i] points at parameter i's
  /// row-major storage. Fails with InvalidRequest (empty handle),
  /// NotRunnable (ISA unknown or wider than the host) or NoCompiler
  /// (source-only), in that order. The handle's ISA and runnability are
  /// resolved when get() returns it, so a successful call is one branch
  /// plus the entry call.
  Status call(double *const *Buffers) const;

  /// Batched dispatch over \p Count contiguous instances per parameter
  /// (instance b of parameter i at Buffers[i] + b*Rows_i*Cols_i), on at
  /// most batchThreads() threads: a batch too small to pay for waking the
  /// pool runs on the calling thread.
  /// Fails as call() does, and with InvalidRequest when the kernel was
  /// not requested batched or a Buffers[i] is not 64-byte aligned; a
  /// refused call runs nothing.
  Status callBatch(int Count, double *const *Buffers) const;

private:
  friend struct detail::KernelFactory;
  std::shared_ptr<const detail::KernelState> S;
};

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

namespace detail {
class Backend;
} // namespace detail

/// Knobs for Session::open that are not part of the address string.
struct SessionConfig {
  /// ServiceConfig key=value pairs applied to the in-process service of a
  /// `local:` (or degraded `auto:`) backend, in order -- e.g.
  /// {"measure","1"}, {"cache-max-bytes","1073741824"}. Unknown keys fail
  /// open() with InvalidRequest. See service serializeServiceConfig for
  /// the key set.
  std::vector<std::pair<std::string, std::string>> ServiceOptions;

  /// Automatic retries (beyond the first attempt) for remote requests
  /// that fail retry-safely: connect failures, transport deaths, and
  /// daemon-side Overloaded sheds. Each retry reconnects and backs off
  /// exponentially (RetryBackoffMs * 2^attempt, jittered, capped at 2 s);
  /// a request deadline caps the whole sequence -- no retry is attempted
  /// that could not finish in budget. 0 disables retries entirely.
  int MaxRetries = 2;
  /// Base backoff before the first retry, in milliseconds.
  int RetryBackoffMs = 20;
  /// Bound on each TCP/Unix connect attempt, in milliseconds: an
  /// unreachable daemon address fails in this much time, not the
  /// kernel's minutes-long SYN-retry budget.
  int ConnectTimeoutMs = 10000;
};

/// A connection to one kernel source. Movable, not copyable; one Session
/// serves requests strictly sequentially (share kernels, not sessions,
/// across threads -- concurrent callers open their own, exactly as with
/// the raw socket client).
class Session {
public:
  enum class BackendKind { Local, Remote, Fallback };

  /// Resolves \p Address (grammar in the file comment) and connects.
  /// Remote backends connect eagerly, so an unreachable daemon fails here
  /// with ConnectFailed; `auto:` always succeeds (a dead daemon degrades
  /// to local). Local backends validate Config.ServiceOptions here.
  static Result<Session> open(const std::string &Address,
                              SessionConfig Config = {});

  Session(Session &&) noexcept;
  Session &operator=(Session &&) noexcept;
  ~Session();

  /// Serves the kernel for \p R, generating/compiling (locally or
  /// daemon-side) only on a cache miss.
  Result<Kernel> get(const Request &R);

  /// Queues background generation for \p R so a later get() is a warm
  /// hit. Returns once queueing is acknowledged, not when generation
  /// finishes (see drain()).
  Status warm(const Request &R);

  /// Blocks until background work queued by warm() has finished. Remote
  /// backends return Ok immediately (the daemon owns its queue).
  Status drain();

  /// Liveness probe (local backends always answer Ok).
  Status ping();

  /// Serving-side counters as `key=value` lines (mem-hits, misses,
  /// generations, ...; one schema for local and remote).
  Result<std::string> stats();

  /// The serving side's full metrics scrape: every registry metric as
  /// globally sorted `key=value` lines (histograms expanded to
  /// count/sum/min/max/p50/p90/p99), plus -- against a daemon -- its
  /// bounded per-kernel / per-peer top-K tables.
  Result<std::string> metrics();

  BackendKind backend() const;
  const std::string &address() const;

private:
  Session();
  std::unique_ptr<detail::Backend> B;
  std::string Addr;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//
//
// Process-wide request tracing. While enabled, every layer of the stack
// records its phase spans (cache lookup, generation, C compile, tuner
// measurement, batch dispatch, wire round trips, ...) into a bounded
// in-memory ring; export produces Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto. Off by default and cheap when off (one
// relaxed atomic load per would-be span). These act on the whole process,
// not one Session: spans from an in-process service land in the same
// trace as the client-side round-trip spans that enclose them.

/// Turns span collection on or off (process-wide).
void setTracing(bool On);
bool tracingEnabled();
/// The collected spans as a Chrome trace-event JSON document.
std::string exportTraceJson();
/// Writes exportTraceJson() to \p Path; false (with \p Err) on I/O error.
bool exportTraceJson(const std::string &Path, std::string &Err);
/// Discards all collected spans (collection state is unchanged).
void clearTrace();

} // namespace client
} // namespace slingen

/// The short spelling used throughout the docs: sl::Session, sl::Kernel...
namespace sl = slingen::client;

#endif // SLINGEN_CLIENT_H
