//===- net/Server.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "la/Lower.h"
#include "net/Protocol.h"
#include "obs/EventLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/File.h"
#include "support/Format.h"

#include <optional>

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::net;

namespace {

/// True when a peer answers on the Unix socket at \p Path -- distinguishes
/// a live daemon from a stale socket file left by a crash.
bool unixSocketAlive(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  bool Alive = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)) == 0;
  close(Fd);
  return Alive;
}

int listenUnix(const std::string &Path, std::string &Err) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Err = "unix socket path too long: " + Path;
    return -1;
  }
  if (unixSocketAlive(Path)) {
    Err = "socket " + Path + " is already served by a live daemon";
    return -1;
  }
  unlink(Path.c_str()); // stale file from a previous run
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = formatf("socket failed: %s", strerror(errno));
    return -1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      listen(Fd, 64) != 0) {
    Err = formatf("cannot listen on %s: %s", Path.c_str(), strerror(errno));
    close(Fd);
    return -1;
  }
  return Fd;
}

int listenTcp(int Port, int &BoundPort, std::string &Err) {
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = formatf("socket failed: %s", strerror(errno));
    return -1;
  }
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // never a public interface
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      listen(Fd, 64) != 0) {
    Err = formatf("cannot listen on 127.0.0.1:%d: %s", Port,
                  strerror(errno));
    close(Fd);
    return -1;
  }
  socklen_t Len = sizeof(Addr);
  if (getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  return Fd;
}

} // namespace

bool net::parseAddr(const std::string &Addr, ParsedAddr &Out,
                    std::string &Err) {
  Out = {};
  std::string Rest = Addr;
  if (Rest.rfind("unix:", 0) == 0) {
    Out.IsUnix = true;
    Out.UnixPath = Rest.substr(5);
    return !Out.UnixPath.empty() ||
           (Err = "empty unix socket path", false);
  }
  if (Rest.rfind("tcp:", 0) == 0)
    Rest = Rest.substr(4);
  else if (Rest.find('/') != std::string::npos) {
    Out.IsUnix = true;
    Out.UnixPath = Rest;
    return true;
  }
  size_t Colon = Rest.rfind(':');
  if (Colon == std::string::npos || Colon + 1 == Rest.size()) {
    Err = "address '" + Addr +
          "' is neither a socket path nor host:port";
    return false;
  }
  Out.Host = Rest.substr(0, Colon);
  if (Out.Host.empty())
    Out.Host = "127.0.0.1";
  for (size_t I = Colon + 1; I < Rest.size(); ++I)
    if (!isdigit(static_cast<unsigned char>(Rest[I]))) {
      Err = "bad port in address '" + Addr + "'";
      return false;
    }
  Out.Port = atoi(Rest.c_str() + Colon + 1);
  if (Out.Port <= 0 || Out.Port > 65535) {
    Err = "bad port in address '" + Addr + "'";
    return false;
  }
  return true;
}

Server::Server(service::KernelService &Svc, ServerConfig Config)
    : Svc(Svc), Cfg(std::move(Config)) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (Cfg.UnixPath.empty() && Cfg.TcpPort < 0) {
    Err = "no listener configured (need a unix path or a TCP port)";
    return false;
  }
  if (!Cfg.UnixPath.empty()) {
    UnixFd = listenUnix(Cfg.UnixPath, Err);
    if (UnixFd < 0)
      return false;
  }
  if (Cfg.TcpPort >= 0) {
    TcpFd = listenTcp(Cfg.TcpPort, BoundTcpPort, Err);
    if (TcpFd < 0) {
      if (UnixFd >= 0) {
        close(UnixFd);
        UnixFd = -1;
        unlink(Cfg.UnixPath.c_str());
      }
      return false;
    }
  }
  Started = true;
  if (UnixFd >= 0)
    AcceptThreads.emplace_back([this] { acceptLoop(UnixFd); });
  if (TcpFd >= 0)
    AcceptThreads.emplace_back([this] { acceptLoop(TcpFd); });
  return true;
}

void Server::stop() {
  if (!Started || Stopping.exchange(true))
    return;
  // Closing the listeners makes the blocked accept() calls fail and the
  // accept loops exit.
  if (UnixFd >= 0)
    shutdown(UnixFd, SHUT_RDWR);
  if (TcpFd >= 0)
    shutdown(TcpFd, SHUT_RDWR);
  if (UnixFd >= 0)
    close(UnixFd);
  if (TcpFd >= 0)
    close(TcpFd);
  for (auto &T : AcceptThreads)
    T.join();
  AcceptThreads.clear();
  // Graceful drain: unblock only the threads idling in read() -- a
  // connection mid-request keeps its stream, finishes, sends its reply,
  // and exits on the post-frame Stopping check (Stopping was set above,
  // so even a request that completes between this pass and the join
  // below sees it).
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Connections)
      if (C->Fd >= 0 && !C->InRequest.load())
        shutdown(C->Fd, SHUT_RDWR);
  }
  for (;;) {
    std::unique_ptr<Connection> Conn;
    {
      std::lock_guard<std::mutex> L(ConnMu);
      if (Connections.empty())
        break;
      Conn = std::move(Connections.front());
      Connections.pop_front();
    }
    Conn->Thread.join();
  }
  if (UnixFd >= 0)
    unlink(Cfg.UnixPath.c_str());
  UnixFd = TcpFd = -1;
}

void Server::reapFinishedConnections() {
  std::lock_guard<std::mutex> L(ConnMu);
  for (auto It = Connections.begin(); It != Connections.end();) {
    if ((*It)->Done.load()) {
      (*It)->Thread.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::acceptLoop(int ListenFd) {
  while (!Stopping.load()) {
    sockaddr_storage Ss{};
    socklen_t SsLen = sizeof(Ss);
    int Fd = accept(ListenFd, reinterpret_cast<sockaddr *>(&Ss), &SsLen);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener closed (stop()) or broken beyond repair
    }
    std::string Peer = "unix";
    if (Ss.ss_family == AF_INET) {
      auto *In = reinterpret_cast<sockaddr_in *>(&Ss);
      char Ip[INET_ADDRSTRLEN] = {};
      inet_ntop(AF_INET, &In->sin_addr, Ip, sizeof(Ip));
      Peer = formatf("%s:%d", Ip, ntohs(In->sin_port));
    }
    if (Stopping.load()) {
      close(Fd);
      return;
    }
    reapFinishedConnections();
    if (Cfg.MaxConns > 0) {
      bool Shed;
      {
        std::lock_guard<std::mutex> L(ConnMu);
        Shed = static_cast<int>(Connections.size()) >= Cfg.MaxConns;
      }
      if (Shed) {
        // Reject at the edge, loudly: an immediate Overloaded ERR tells
        // the client to back off and retry, where a silent close or an
        // unserved queue slot would just hang it.
        static obs::Counter &ShedCount =
            obs::Registry::global().counter("net.shed");
        ShedCount.add();
        obs::EventLog::global().log(obs::EventLog::Level::Warn, 0, "shed",
                                    {{"peer", Peer},
                                     {"reason", "connection capacity"}});
        std::string Ignored;
        writeFrame(Fd, Verb::Error,
                   encodeErrorPayload(service::Errc::Overloaded,
                                      "server at connection capacity"),
                   Ignored);
        close(Fd);
        continue;
      }
    }
    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Conn->Peer = std::move(Peer);
    Connection *Raw = Conn.get();
    {
      // The thread member is assigned under the same lock the reaper and
      // stop() take, so a connection that finishes instantly can never be
      // join()ed mid-assignment by the other accept thread.
      std::lock_guard<std::mutex> L(ConnMu);
      Connections.push_back(std::move(Conn));
      Raw->Thread = std::thread([this, Raw] { serveConnection(*Raw); });
    }
  }
}

void Server::serveConnection(Connection &Conn) {
  for (;;) {
    Frame F;
    std::string Err;
    int64_t IdleDeadline =
        Cfg.IdleTimeoutMs > 0
            ? obs::nowUs() + static_cast<int64_t>(Cfg.IdleTimeoutMs) * 1000
            : 0;
    ReadStatus RS = readFrame(Conn.Fd, F, Err, Cfg.MaxPayload, IdleDeadline);
    if (RS == ReadStatus::Eof)
      break;
    if (RS == ReadStatus::Timeout)
      break; // idle too long (or stalled mid-frame): reclaim the slot
    if (RS == ReadStatus::Error) {
      // Oversized/bad-magic/torn input: tell the peer why (best effort;
      // for a torn frame it is likely gone) and drop the connection --
      // the stream can no longer be trusted to be frame-aligned.
      std::string Ignored;
      writeFrame(Conn.Fd, Verb::Error,
                 encodeErrorPayload(service::Errc::InvalidRequest, Err),
                 Ignored);
      break;
    }
    Conn.InRequest = true;
    bool Keep = handleFrame(Conn, F);
    Conn.InRequest = false;
    // Checked after the reply: a drain that began mid-request still gets
    // its answer out before the connection goes away.
    if (!Keep || Stopping.load())
      break;
  }
  // Closed under ConnMu so stop()'s shutdown pass never touches a
  // recycled descriptor number.
  {
    std::lock_guard<std::mutex> L(ConnMu);
    close(Conn.Fd);
    Conn.Fd = -1;
  }
  Conn.Done = true;
}

namespace {

/// Per-verb request-latency histograms plus the server's frame counter,
/// resolved once. The per-verb split is the ops-facing view: GET carries
/// the whole serving pipeline, PING isolates pure wire + scheduling cost.
struct ServerMetrics {
  obs::Counter &Frames = obs::Registry::global().counter("server.frames");
  obs::Histogram &PingUs =
      obs::Registry::global().histogram("server.ping.us");
  obs::Histogram &StatsUs =
      obs::Registry::global().histogram("server.stats.us");
  obs::Histogram &GetUs = obs::Registry::global().histogram("server.get.us");
  obs::Histogram &WarmUs =
      obs::Registry::global().histogram("server.warm.us");
  obs::Histogram &MetricsUs =
      obs::Registry::global().histogram("server.metrics.us");
  obs::Histogram &OtherUs =
      obs::Registry::global().histogram("server.other.us");
  /// Per-dimension top-K accounting (bounded: see LabelTable); scraped by
  /// the METRICS verb.
  obs::LabelTable PerKernel{64};
  obs::LabelTable PerPeer{64};

  obs::Histogram &forVerb(Verb V) {
    switch (V) {
    case Verb::Ping:
      return PingUs;
    case Verb::Stats:
      return StatsUs;
    case Verb::Get:
      return GetUs;
    case Verb::Warm:
      return WarmUs;
    case Verb::Metrics:
      return MetricsUs;
    default:
      return OtherUs;
    }
  }

  static ServerMetrics &get() {
    static ServerMetrics M;
    return M;
  }
};

const char *spanNameForVerb(Verb V) {
  switch (V) {
  case Verb::Ping:
    return "serve-ping";
  case Verb::Stats:
    return "serve-stats";
  case Verb::Get:
    return "serve-get";
  case Verb::Warm:
    return "serve-warm";
  case Verb::Metrics:
    return "serve-metrics";
  default:
    return "serve-other";
  }
}

const char *verbToken(Verb V) {
  switch (V) {
  case Verb::Ping:
    return "ping";
  case Verb::Stats:
    return "stats";
  case Verb::Get:
    return "get";
  case Verb::Warm:
    return "warm";
  case Verb::Metrics:
    return "metrics";
  default:
    return "other";
  }
}

/// A short greppable fingerprint of a request before its cache key is
/// known: the head of the LA program with everything outside
/// [A-Za-z0-9_-] squashed to '.', so the flight recorder names what was
/// being generated even when the request never completed.
std::string kernelLabelFor(const std::string &LaSource) {
  std::string Out;
  for (char C : LaSource) {
    if (Out.size() >= 28)
      break;
    if (isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '-')
      Out += C;
    else if (!Out.empty() && Out.back() != '.')
      Out += '.';
  }
  return Out.empty() ? "-" : Out;
}

} // namespace

bool Server::handleFrame(Connection &Conn, const Frame &F) {
  ++Served;
  ServerMetrics &M = ServerMetrics::get();
  M.Frames.add();
  // Connection threads serve many requests: the previous frame's trace id
  // must not bleed into this one's spans. The Get/Warm path re-stamps it
  // after decoding; the stamp stays live through Handle's destructor so
  // the serve-* span is tagged too.
  obs::setCurrentTraceId(0);
  obs::ScopedSpan Handle(spanNameForVerb(F.verb()), "server",
                         &M.forVerb(F.verb()));
  std::string Err;
  auto Respond = [&](Verb V, const std::string &Payload) {
    std::string WriteErr;
    return writeFrame(Conn.Fd, V, Payload, WriteErr);
  };
  auto RespondError = [&](service::Errc Code, const std::string &Msg,
                          uint64_t TraceId) {
    obs::EventLog::global().log(obs::EventLog::Level::Error, TraceId,
                                "error",
                                {{"verb", verbToken(F.verb())},
                                 {"errc", service::errcName(Code)},
                                 {"peer", Conn.Peer},
                                 {"msg", Msg}});
    return Respond(Verb::Error, encodeErrorPayload(Code, Msg));
  };

  switch (F.verb()) {
  case Verb::Ping:
    return Respond(Verb::Ok, "pong");

  case Verb::Stats:
    return Respond(Verb::Ok, serializeServiceStats(Svc.stats()));

  case Verb::Metrics:
    // The whole registry (globally sorted keys) plus the bounded
    // top-K dimension tables -- the scrape surface for slc -metrics.
    return Respond(Verb::Ok, obs::Registry::global().renderText() +
                                 M.PerKernel.renderText("top.kernel", 10) +
                                 M.PerPeer.renderText("top.peer", 10));

  case Verb::Get:
  case Verb::Warm: {
    Request R;
    if (!decodeRequest(F.Payload, R, Err))
      return RespondError(service::Errc::InvalidRequest, Err, 0);
    obs::setCurrentTraceId(R.TraceId);
    GenOptions Options;
    service::RequestOptions Req;
    if (!requestToServiceArgs(R, Options, Req, Err))
      return RespondError(service::Errc::InvalidRequest, Err, R.TraceId);

    std::string Label = kernelLabelFor(R.LaSource);
    const char *Tok = verbToken(F.verb());
    obs::FlightRecorder &FR = obs::FlightRecorder::global();
    // "start" is written before any service work: if the process dies
    // mid-request, the crash dump still names what was in flight.
    FR.record(R.TraceId, "start", Tok, Label.c_str(), Conn.Peer.c_str(),
              "-", "-", -1);

    if (F.verb() == Verb::Warm) {
      // Parse the program before queueing (options were validated above),
      // so a malformed warm list fails loudly at the client instead of
      // silently warming nothing; only the generate+compile is async.
      if (!la::compileLa(R.LaSource, Err)) {
        FR.record(R.TraceId, "fail", Tok, Label.c_str(), Conn.Peer.c_str(),
                  "-", service::errcName(service::Errc::ParseError),
                  Handle.elapsedUs());
        return RespondError(service::Errc::ParseError,
                            "parse error: " + Err, R.TraceId);
      }
      Svc.prefetch(R.LaSource, Options, Req);
      FR.record(R.TraceId, "done", Tok, Label.c_str(), Conn.Peer.c_str(),
                "queued", "-", Handle.elapsedUs());
      return Respond(Verb::Ok, "queued");
    }

    // A timing request gets this request's spans back with its breakdown.
    obs::SpanCollector Spans;
    std::optional<obs::ScopedCollect> Collect;
    if (R.WantTiming)
      Collect.emplace(Spans);
    service::GetResult G = Svc.get(R.LaSource, Options, Req);
    Collect.reset();
    int64_t LatUs = Handle.elapsedUs();
    M.PerPeer.add(Conn.Peer, LatUs);
    if (!G) {
      M.PerKernel.add(Label, LatUs);
      FR.record(R.TraceId, "fail", Tok, Label.c_str(), Conn.Peer.c_str(),
                G.Timing.Tier.c_str(), service::errcName(G.Code), LatUs);
      return RespondError(G.Code, G.Error, R.TraceId);
    }
    M.PerKernel.add(G->FuncName, LatUs);
    FR.record(R.TraceId, "done", Tok, G->FuncName.c_str(),
              Conn.Peer.c_str(), G.Timing.Tier.c_str(), "-", LatUs);
    if (Cfg.SlowMs > 0 && LatUs > static_cast<int64_t>(Cfg.SlowMs) * 1000)
      obs::EventLog::global().log(
          obs::EventLog::Level::Warn, R.TraceId, "slow",
          {{"kernel", G->FuncName},
           {"tier", G.Timing.Tier},
           {"peer", Conn.Peer},
           {"lat-us", formatf("%lld", static_cast<long long>(LatUs))}});
    std::string SoBytes;
    if (R.WantSo && G->isCallable()) {
      bool Ok = false;
      SoBytes = readFile(G->Kernel->soPath(), &Ok);
      if (!Ok)
        SoBytes.clear(); // degrade to source-only over the wire
    }
    ArtifactMsg Msg = artifactToMsg(*G.Kernel, std::move(SoBytes));
    if (R.WantTiming) {
      Msg.Timing.emplace(std::move(G.Timing));
      Msg.ServerSpans = std::move(Spans.Spans);
    }
    return Respond(Verb::Artifact, encodeArtifact(Msg));
  }

  case Verb::Artifact:
  case Verb::Ok:
  case Verb::Error:
    break; // response verbs from a client are a protocol violation
  }
  // Unknown or misplaced verb: answer (the frame boundary is intact) but
  // keep serving -- a client sending a verb this daemon does not serve
  // deserves a diagnosable error, not a hangup.
  return RespondError(service::Errc::InvalidRequest,
                      formatf("unsupported verb 0x%02x", F.VerbByte), 0);
}
