//===- client/RemoteBackend.cpp - daemon-backed and fallback backends -----===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The `unix:`/`tcp:` backend -- a net::Client with per-request connection
// re-establishment -- and the `auto:` wrapper that degrades to a local
// service on transport failures only. Daemon-side verdicts about a request
// (parse errors, compile failures, ...) are final: re-running them locally
// would just repeat the failure while hiding the daemon's state, so the
// fallback never catches those.
//
//===----------------------------------------------------------------------===//

#include "client/ClientImpl.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

using namespace slingen;
using namespace slingen::client;
using namespace slingen::client::detail;

namespace {

/// True when the failure says nothing about the request itself, so
/// re-sending it is sound: the transport died (except a client-side
/// deadline expiry, which retrying cannot outrun), or the daemon shed it
/// under load and asked for a backoff.
bool retryable(const net::ClientError &E) {
  if (E.Code && *E.Code == service::Errc::DeadlineExceeded)
    return false;
  if (E.Category == net::ErrorCategory::Transport)
    return true;
  return E.Category == net::ErrorCategory::Daemon && E.Code &&
         *E.Code == service::Errc::Overloaded;
}

class RemoteBackend : public Backend {
public:
  RemoteBackend(std::string Addr, SessionConfig Config)
      : Addr(std::move(Addr)), Cfg(std::move(Config)) {}

  /// One bounded attempt loop shared by every verb (GET/WARM/PING/STATS
  /// are all idempotent): ensure a connection, run the exchange, and on a
  /// retry-safe failure (see retryable) back off and try again, up to
  /// Cfg.MaxRetries retries. Backoff is exponential with jitter so a
  /// thundering herd of shed clients spreads out instead of re-arriving in
  /// lockstep; \p DeadlineUs (0 = none) caps the whole sequence -- a sleep
  /// that would land past the deadline is not taken. The failure that
  /// survives distinguishes "never reached the daemon" (ConnectFailed)
  /// from "the connection died on us" (TransportError) -- the signal the
  /// fallback backend keys on.
  template <typename Fn>
  Status withConnection(Fn &&Attempt, int64_t DeadlineUs = 0) {
    static obs::Counter &Retries =
        obs::Registry::global().counter("client.retries");
    bool WasConnected = Conn.has_value();
    const int MaxRetries = std::max(0, Cfg.MaxRetries);
    Status Last;
    for (int Try = 0; Try <= MaxRetries; ++Try) {
      if (Try > 0) {
        if (!backoff(Try, DeadlineUs))
          return Last; // no room left in the deadline for another attempt
        Retries.add();
      }
      if (!Conn) {
        std::string ConnErr;
        Conn = net::Client::connect(Addr, ConnErr, Cfg.ConnectTimeoutMs);
        if (!Conn) {
          Last = Status::failure(WasConnected ? Code::TransportError
                                              : Code::ConnectFailed,
                                 ConnErr);
          continue;
        }
      }
      // Clear any deadline a previous request left on the cached
      // connection; the attempt callback re-arms it when this request
      // carries one.
      Conn->setDeadlineUs(0);
      net::ClientError E;
      if (Attempt(*Conn, E))
        return Status::success();
      if (E.Category == net::ErrorCategory::Transport) {
        // The stream died (or desynced): never reuse it.
        Conn.reset();
        WasConnected = true;
      }
      Last = mapClientError(E, /*Connected=*/true);
      if (!retryable(E))
        return Last;
    }
    return Last;
  }

  Result<Kernel> get(const Request &R) override {
    net::ArtifactMsg Msg;
    net::Request W = toWireRequest(R);
    // Every request gets a trace id + root span id: the daemon tags its
    // spans and flight-recorder records with it, and (under WantTiming)
    // ships its span list back so the exported trace merges both sides.
    W.TraceId = obs::newTraceId();
    W.SpanId = obs::newTraceId();
    // ... and the same id tags everything this thread records locally
    // (the client-roundtrip span) while the request runs.
    obs::ScopedTraceId TraceScope(W.TraceId);
    const int64_t DeadlineUs =
        W.DeadlineMs > 0
            ? obs::nowUs() + static_cast<int64_t>(W.DeadlineMs) * 1000
            : 0;
    auto Attempt = [&](net::Client &C, net::ClientError &E) {
      if (DeadlineUs > 0) {
        C.setDeadlineUs(DeadlineUs);
        // Each attempt ships the time *remaining*, so a retry after
        // backoff asks the daemon for less, not the original budget.
        int64_t RemainMs = (DeadlineUs - obs::nowUs() + 999) / 1000;
        W.DeadlineMs = static_cast<uint32_t>(std::max<int64_t>(1, RemainMs));
      }
      return C.get(W, Msg, E);
    };
    long Start = obs::nowUs();
    Status St = withConnection(Attempt, DeadlineUs);
    if (!St)
      return St;
    return KernelFactory::fromMessage(std::move(Msg), obs::nowUs() - Start);
  }

  Status warm(const Request &R) override {
    // WARM returns a bare OK -- there is no artifact to hang a breakdown
    // on, and the caller is not waiting for the generation -- so never
    // forward the want-timing or deadline fields.
    net::Request W = toWireRequest(R);
    W.WantTiming = false;
    W.DeadlineMs = 0;
    return withConnection([&](net::Client &C, net::ClientError &E) {
      return C.warm(W, E);
    });
  }

  Status drain() override {
    // The daemon owns its prefetch queue; nothing to wait for here.
    return Status::success();
  }

  Status ping() override {
    return withConnection(
        [&](net::Client &C, net::ClientError &E) { return C.ping(E); });
  }

  Result<std::string> stats() override {
    std::string Text;
    Status St = withConnection([&](net::Client &C, net::ClientError &E) {
      return C.stats(Text, E);
    });
    if (!St)
      return St;
    return Text;
  }

  Result<std::string> metrics() override {
    std::string Text;
    Status St = withConnection([&](net::Client &C, net::ClientError &E) {
      return C.metrics(Text, E);
    });
    if (!St)
      return St;
    return Text;
  }

  Session::BackendKind kind() const override {
    return Session::BackendKind::Remote;
  }

  /// Eager initial connect for Session::open's fail-fast contract.
  Status connectNow() {
    return withConnection(
        [&](net::Client &C, net::ClientError &E) { return C.ping(E); });
  }

private:
  /// Jittered exponential backoff before retry number \p Attempt (1-based).
  /// Returns false -- without sleeping -- when the sleep plus one more
  /// attempt cannot fit before \p DeadlineUs.
  bool backoff(int Attempt, int64_t DeadlineUs) {
    int Base = Cfg.RetryBackoffMs > 0 ? Cfg.RetryBackoffMs : 1;
    int64_t DelayMs = static_cast<int64_t>(Base) << (Attempt - 1);
    DelayMs = std::min<int64_t>(DelayMs, 2000);
    // Jitter (0.5x-1.5x) decorrelates clients that were shed together.
    static thread_local std::mt19937 Rng{std::random_device{}()};
    std::uniform_real_distribution<double> Jitter(0.5, 1.5);
    DelayMs = std::max<int64_t>(1, static_cast<int64_t>(
                                       static_cast<double>(DelayMs) *
                                       Jitter(Rng)));
    if (DeadlineUs > 0 && obs::nowUs() + DelayMs * 1000 >= DeadlineUs)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    return true;
  }

  std::string Addr;
  SessionConfig Cfg;
  std::optional<net::Client> Conn;
};

/// Remote first; a lazily built local service catches transport failures.
class FallbackBackend : public Backend {
public:
  FallbackBackend(std::string RemoteAddr, SessionConfig Config)
      : Remote(std::move(RemoteAddr), Config), Config(std::move(Config)) {}

  Result<Kernel> get(const Request &R) override {
    Result<Kernel> K = Remote.get(R);
    if (K || !transportish(K.code()))
      return K;
    Backend *L = local();
    return L ? L->get(R) : K;
  }

  Status warm(const Request &R) override {
    Status St = Remote.warm(R);
    if (St || !transportish(St.code()))
      return St;
    Backend *L = local();
    return L ? L->warm(R) : St;
  }

  Status drain() override {
    // Only the local half queues in-process work.
    return Local ? Local->drain() : Status::success();
  }

  Status ping() override {
    Status St = Remote.ping();
    if (St || !transportish(St.code()))
      return St;
    Backend *L = local();
    return L ? L->ping() : St;
  }

  Result<std::string> stats() override {
    Result<std::string> R = Remote.stats();
    if (R || !transportish(R.code()))
      return R;
    Backend *L = local();
    return L ? L->stats() : R;
  }

  Result<std::string> metrics() override {
    Result<std::string> R = Remote.metrics();
    if (R || !transportish(R.code()))
      return R;
    Backend *L = local();
    return L ? L->metrics() : R;
  }

  Session::BackendKind kind() const override {
    return Session::BackendKind::Fallback;
  }

private:
  /// Only failures to *reach* the daemon degrade to local. Overloaded and
  /// DeadlineExceeded deliberately do not: the daemon is alive and spoke
  /// -- falling back would dodge its load shedding (making the overload
  /// worse) or burn time the deadline no longer has.
  static bool transportish(Code C) {
    return C == Code::ConnectFailed || C == Code::TransportError;
  }

  /// The degraded path, built on first need so sessions whose daemon
  /// never goes away pay nothing for it. The options were validated at
  /// open(), so construction here cannot fail in practice; if it somehow
  /// does, the remote error passes through unmasked.
  Backend *local() {
    if (!Local && !LocalBroken) {
      Status Err;
      Local = makeLocalBackend("", Config, Err);
      if (!Local)
        LocalBroken = true;
    }
    return Local.get();
  }

  RemoteBackend Remote;
  SessionConfig Config;
  std::unique_ptr<Backend> Local;
  bool LocalBroken = false;
};

} // namespace

std::unique_ptr<Backend> detail::makeRemoteBackend(const std::string &Addr,
                                                   const SessionConfig &Config,
                                                   bool Eager, Status &Err) {
  auto B = std::make_unique<RemoteBackend>(Addr, Config);
  if (Eager) {
    if (Status St = B->connectNow(); !St) {
      // Normalize: an eager first connect can never be a mid-request death.
      Err = Status::failure(Code::ConnectFailed, St.message());
      return nullptr;
    }
  }
  return B;
}

std::unique_ptr<Backend>
detail::makeFallbackBackend(const std::string &RemoteAddr,
                            const SessionConfig &Config, Status &Err) {
  // Validate the local half's options eagerly -- a typo in ServiceOptions
  // should fail open(), not the first degraded request.
  service::ServiceConfig Probe;
  std::string OptErr;
  for (const auto &[Key, Value] : Config.ServiceOptions)
    if (!service::applyServiceConfigOption(Probe, Key, Value, OptErr)) {
      Err = Status::failure(Code::InvalidRequest, OptErr);
      return nullptr;
    }
  return std::make_unique<FallbackBackend>(RemoteAddr, Config);
}
